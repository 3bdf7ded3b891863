// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in scheduling order, which makes
// every simulation in this repository exactly reproducible from its seed.
// All subsystems that need the passage of time (MPPDB query execution, bulk
// loading, activity monitoring, elastic scaling) are driven by one Engine.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// Time is a virtual timestamp, measured in nanoseconds since the start of the
// simulation. It is a distinct type (rather than time.Time) because simulated
// experiments span weeks of virtual time and have no wall-clock anchor.
type Time int64

// Common time constants expressed as durations from the simulation origin.
const (
	Millisecond Time = Time(time.Millisecond)
	Second      Time = Time(time.Second)
	Minute      Time = Time(time.Minute)
	Hour        Time = Time(time.Hour)
	Day              = 24 * Hour
)

// MaxTime is the largest representable virtual timestamp.
const MaxTime Time = math.MaxInt64

// Duration converts a time.Duration into the engine's tick unit.
func Duration(d time.Duration) Time { return Time(d) }

// Seconds returns t expressed in seconds as a float.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Sub returns the duration between t and u as a time.Duration.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Add returns t shifted by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// String formats the timestamp as d:hh:mm:ss.mmm for logs and traces.
func (t Time) String() string {
	neg := ""
	if t < 0 {
		neg = "-"
		t = -t
	}
	d := t / Day
	t %= Day
	h := t / Hour
	t %= Hour
	m := t / Minute
	t %= Minute
	s := t / Second
	ms := (t % Second) / Millisecond
	return fmt.Sprintf("%s%dd%02d:%02d:%02d.%03d", neg, d, h, m, s, ms)
}

// Event is a scheduled callback. It is returned by Schedule so callers can
// cancel pending events (for example, a processor-sharing executor cancels
// the previously predicted completion whenever a new query arrives).
type Event struct {
	at       Time
	seq      uint64
	index    int // heap index; -1 once removed
	canceled bool
	// owned events belong to the engine: they are recycled onto the
	// engine's freelist the moment they fire (or are CancelOwned-ed), so
	// holders of an owned handle must drop it at that point. Events from
	// plain Schedule are never recycled — callers may Cancel them at any
	// later time.
	owned bool
	fn    func(now Time)
}

// At reports the virtual time at which the event fires (or would have fired).
func (e *Event) At() Time { return e.at }

// Canceled reports whether Cancel was called before the event fired.
func (e *Event) Canceled() bool { return e.canceled }

// Engine is a discrete-event simulator. The zero value is not usable; create
// engines with NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	queue  eventHeap
	nsteps uint64
	// free recycles owned events. The engine is single-threaded (callers
	// serialize through a Domain), so a plain freelist needs no locking —
	// and unlike a sync.Pool it is deterministic and never drained by GC.
	free []*Event
}

// NewEngine returns an engine with the clock at time zero and no pending
// events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events executed so far (useful for tests and
// for guarding against runaway simulations).
func (e *Engine) Steps() uint64 { return e.nsteps }

// Pending returns the number of events currently scheduled (including
// canceled events that have not yet been discarded).
func (e *Engine) Pending() int { return e.queue.Len() }

// NextAt reports the fire time of the earliest pending (non-canceled) event.
// Clock-domain drivers use it to step an engine event-by-event while keeping
// a lock-free mirror of the clock fresh for concurrent readers.
func (e *Engine) NextAt() (Time, bool) {
	ev := e.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// Schedule registers fn to run at the absolute virtual time at. Scheduling in
// the past panics: it always indicates a logic error in the caller, and
// silently clamping would hide it.
func (e *Engine) Schedule(at Time, fn func(now Time)) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	ev := &Event{at: at, seq: e.seq, fn: fn}
	heap.Push(&e.queue, ev)
	return ev
}

// ScheduleOwned is Schedule with the allocation recycled: the event comes
// from the engine's freelist and returns to it the moment it fires or is
// CancelOwned-ed. The returned handle is valid only until then — callers
// must drop their reference at that point and never pass it to Cancel.
// Firing order is identical to Schedule (the global sequence counter is
// shared), so mixing the two never perturbs a deterministic run.
func (e *Engine) ScheduleOwned(at Time, fn func(now Time)) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	ev := e.acquire()
	ev.at, ev.seq, ev.fn = at, e.seq, fn
	heap.Push(&e.queue, ev)
	return ev
}

// CancelOwned cancels an event obtained from ScheduleOwned and recycles it
// immediately. The caller must drop its reference: the engine will hand the
// same Event out again on a later ScheduleOwned.
func (e *Engine) CancelOwned(ev *Event) {
	if ev == nil {
		return
	}
	if ev.index >= 0 {
		heap.Remove(&e.queue, ev.index)
		ev.index = -1
	}
	e.release(ev)
}

// acquire pops a recycled event from the freelist (or allocates one) and
// marks it owned.
func (e *Engine) acquire() *Event {
	n := len(e.free)
	if n == 0 {
		return &Event{owned: true}
	}
	ev := e.free[n-1]
	e.free[n-1] = nil
	e.free = e.free[:n-1]
	ev.canceled = false
	return ev
}

// release returns an owned event to the freelist.
func (e *Engine) release(ev *Event) {
	if !ev.owned {
		return
	}
	ev.fn = nil
	e.free = append(e.free, ev)
}

// After registers fn to run d after the current virtual time.
func (e *Engine) After(d time.Duration, fn func(now Time)) *Event {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now.Add(d), fn)
}

// Cancel marks ev so that it will not fire. Canceling an already-fired or
// already-canceled event is a no-op. The event is removed from the queue
// immediately so canceled events do not accumulate.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.canceled || ev.index < 0 {
		if ev != nil {
			ev.canceled = true
		}
		return
	}
	ev.canceled = true
	heap.Remove(&e.queue, ev.index)
	ev.index = -1
}

// Step executes the single earliest pending event. It reports false when the
// queue is empty.
func (e *Engine) Step() bool {
	for e.queue.Len() > 0 {
		ev := heap.Pop(&e.queue).(*Event)
		ev.index = -1
		if ev.canceled {
			continue
		}
		if ev.at < e.now {
			panic("sim: event time moved backwards")
		}
		e.now = ev.at
		e.nsteps++
		ev.fn(e.now)
		// Recycle only after fn returns: fn may itself ScheduleOwned, and
		// releasing first would hand it this very event mid-flight.
		e.release(ev)
		return true
	}
	return false
}

// Run executes events until the queue drains or the next event would fire
// after until. The clock is finally advanced to until (never backwards), so
// time-based measurements cover the full horizon even if activity ends early.
func (e *Engine) Run(until Time) {
	for e.queue.Len() > 0 {
		next := e.peek()
		if next == nil {
			break
		}
		if next.at > until {
			break
		}
		e.Step()
	}
	if until > e.now {
		e.now = until
	}
}

// RunAll executes events until the queue is empty.
func (e *Engine) RunAll() {
	for e.Step() {
	}
}

// peek returns the earliest non-canceled event without executing it.
func (e *Engine) peek() *Event {
	for e.queue.Len() > 0 {
		ev := e.queue[0]
		if !ev.canceled {
			return ev
		}
		heap.Pop(&e.queue)
	}
	return nil
}

// eventHeap orders events by (time, sequence) so simultaneous events fire in
// the order they were scheduled.
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
