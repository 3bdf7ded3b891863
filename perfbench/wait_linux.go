//go:build linux

package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// waiter parks a goroutine until a deadline on a Linux timerfd. The fd is
// non-blocking, so a read parks in Go's network poller, which wakes within
// tens of microseconds; time.Sleep rounds short waits up to about a
// millisecond, which an open-loop generator would charge to the server.
type waiter struct {
	f   *os.File
	buf [8]byte
}

const clockMonotonic = 1

type itimerspec struct {
	interval, value syscall.Timespec
}

func newWaiter() (*waiter, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &waiter{f: os.NewFile(fd, "timerfd")}, nil
}

// spinWindow is how close to the deadline the waiter stops parking and
// polls the clock instead, absorbing the poller's wake-up latency.
const spinWindow = 100 * time.Microsecond

// until returns at t (at once if t has passed) and how long it polled the
// clock, burning CPU, before returning.
func (w *waiter) until(t time.Time) (time.Duration, error) {
	if d := time.Until(t) - spinWindow; d > 0 {
		spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
		conn, err := w.f.SyscallConn()
		if err != nil {
			return 0, err
		}
		var errno syscall.Errno
		if cerr := conn.Control(func(fd uintptr) {
			_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
		}); cerr != nil {
			return 0, cerr
		}
		if errno != 0 {
			return 0, os.NewSyscallError("timerfd_settime", errno)
		}
		if _, err := w.f.Read(w.buf[:]); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for time.Now().Before(t) {
	}
	return time.Since(start), nil
}

func (w *waiter) close() error { return w.f.Close() }
