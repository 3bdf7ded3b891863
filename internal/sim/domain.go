// Clock domains: the concurrency boundary around an Engine.
//
// The Engine itself is deliberately single-threaded — determinism comes from
// one driver executing events in (time, sequence) order. A Domain wraps one
// Engine with a mutex so multiple goroutines can share it safely, and keeps a
// lock-free mirror of the clock so other domains (and the telemetry hub) can
// read "now" without contending for the engine.
//
// Two configurations cover the repository's needs:
//
//   - Shared domain (experiment mode): every subsystem is built on one
//     Engine. Event interleaving across tenant-groups is globally ordered, so
//     same-seed runs are byte-identical down to the telemetry stream.
//   - Domain per tenant-group (service mode): each group's MPPDBs, router,
//     monitor, and scaling run against their own Engine. Requests touching
//     different groups proceed fully in parallel; each domain is paced
//     against the wall clock independently.
//
// Replay drives either layout the same way: one loop per domain, the
// domains advancing concurrently.
package sim

import (
	"sync"
	"sync/atomic"
)

// Domain is an exclusive handle on one Engine. All engine access — advancing
// the clock, scheduling, submitting work to subsystems built on the engine —
// must go through Advance or Do, which serialize callers. Now is safe to call
// from any goroutine at any time, including from inside another domain's
// callbacks, and never blocks.
type Domain struct {
	mu  sync.Mutex
	eng *Engine
	now atomic.Int64 // mirror of eng.Now(), readable without the lock
}

// NewDomain wraps the engine in a domain. The engine must not be driven
// directly by another goroutine afterwards; a single-threaded driver that
// owns the engine exclusively (an experiment's own loop) may keep using it
// directly, in which case the domain's mirror is refreshed the next time the
// domain is entered.
func NewDomain(eng *Engine) *Domain {
	d := &Domain{eng: eng}
	d.now.Store(int64(eng.Now()))
	return d
}

// Now returns the domain's virtual time without taking the domain lock. The
// value is exact while the domain is quiescent and at most one event stale
// while Advance is mid-run.
func (d *Domain) Now() Time { return Time(d.now.Load()) }

// Advance acquires the domain, runs the engine up to target — stepping
// event-by-event so concurrent Now readers observe a fresh clock — and then,
// when fn is non-nil, runs fn with exclusive engine access at the advanced
// clock. A target at or before the current clock only runs fn. fn must not
// re-enter this domain (Advance/Do on the same domain deadlocks); it may read
// other domains' clocks freely.
func (d *Domain) Advance(target Time, fn func(*Engine)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		at, ok := d.eng.NextAt()
		if !ok || at > target {
			break
		}
		d.now.Store(int64(at))
		d.eng.Step()
	}
	if target > d.eng.Now() {
		d.eng.Run(target) // due events are drained: this is the final clock bump
	}
	d.now.Store(int64(d.eng.Now()))
	if fn != nil {
		fn(d.eng)
		d.now.Store(int64(d.eng.Now()))
	}
}

// Do runs fn with exclusive engine access without advancing the clock first.
// Replay uses it to schedule a window's events before driving the domain
// with Advance.
func (d *Domain) Do(fn func(*Engine)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	fn(d.eng)
	d.now.Store(int64(d.eng.Now()))
}

// Domains bundles several clock domains into one read-only clock whose Now is
// the most advanced member clock. A sharded deployment's telemetry hub uses
// this as its timestamp source: it is lock-free, so instrumentation sites may
// call it while holding any single domain's lock without deadlock.
type Domains []*Domain

// Now returns the most advanced member clock (zero with no members).
func (ds Domains) Now() Time {
	var max Time
	for _, d := range ds {
		if t := d.Now(); t > max {
			max = t
		}
	}
	return max
}
