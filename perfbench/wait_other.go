//go:build !linux

package main

import "time"

// waiter falls back to time.Sleep where there is no timerfd; the lag it
// adds shows in loadgen.lag_p99_ms.
type waiter struct{}

func newWaiter() (*waiter, error) { return &waiter{}, nil }

func (w *waiter) until(t time.Time) (time.Duration, error) {
	time.Sleep(time.Until(t))
	return 0, nil
}

func (w *waiter) close() error { return nil }
