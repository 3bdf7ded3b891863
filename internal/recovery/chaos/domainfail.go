package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/master"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// DomainOutage is one scheduled correlated failure: every active node in the
// failure domain dies at At, and the domain's capacity stays unacquirable
// until At+Duration.
type DomainOutage struct {
	// At is when the domain goes down.
	At sim.Time
	// Duration is how long it stays down.
	Duration time.Duration
	// Domain is the pool failure-domain index.
	Domain int
}

// DomainFailConfig parameterizes a seeded correlated-failure storm: a
// schedule of whole-domain outages.
type DomainFailConfig struct {
	// Seed fixes the schedule's randomness (domain choice).
	Seed int64
	// Outages is how many domain outages to schedule (default 2).
	Outages int
	// Duration is each outage's length (default 3 h, clamped so same-domain
	// outages can never overlap).
	Duration time.Duration
	// Rolling switches the schedule from evenly spaced independent outages to
	// a rolling storm: consecutive domains go down back-to-back with a 25%
	// overlap, so recovery of one domain races the loss of the next.
	Rolling bool
}

// DefaultDomainFailConfig returns a two-outage storm.
func DefaultDomainFailConfig() DomainFailConfig {
	return DomainFailConfig{
		Seed:     1,
		Outages:  2,
		Duration: 3 * time.Hour,
	}
}

// ValidateOutages checks a schedule against the pool shape and window:
// domains in range, positive durations, and no same-domain overlap (the pool
// rejects failing a domain that is already down).
func ValidateOutages(sched []DomainOutage, domains int, from, to sim.Time) error {
	byDomain := map[int][]DomainOutage{}
	for i, o := range sched {
		if o.Domain < 0 || o.Domain >= domains {
			return fmt.Errorf("domainfail: outage %d targets domain %d of %d", i, o.Domain, domains)
		}
		if o.Duration <= 0 {
			return fmt.Errorf("domainfail: outage %d has duration %v", i, o.Duration)
		}
		if o.At < from || o.At >= to {
			return fmt.Errorf("domainfail: outage %d at %v outside [%v,%v)", i, o.At, from, to)
		}
		byDomain[o.Domain] = append(byDomain[o.Domain], o)
	}
	for d, os := range byDomain {
		sort.Slice(os, func(i, j int) bool { return os[i].At < os[j].At })
		for i := 1; i < len(os); i++ {
			if os[i].At < os[i-1].At.Add(os[i-1].Duration) {
				return fmt.Errorf("domainfail: domain %d outages overlap at %v", d, os[i].At)
			}
		}
	}
	return nil
}

// BuildOutages derives the outage schedule over the window [from, to).
// Deterministic in (domains, window, cfg). Plain storms space Outages
// evenly through the window, each hitting a seeded domain; rolling storms
// march through consecutive domains back-to-back with a 25% overlap so
// restoration of one races the loss of the next.
func BuildOutages(domains int, from, to sim.Time, cfg DomainFailConfig) ([]DomainOutage, error) {
	if to <= from {
		return nil, fmt.Errorf("domainfail: window [%v,%v)", from, to)
	}
	if cfg.Outages < 1 || cfg.Duration <= 0 || domains < 1 {
		return nil, fmt.Errorf("domainfail: Outages=%d Duration=%v domains=%d", cfg.Outages, cfg.Duration, domains)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	dur := sim.Duration(cfg.Duration)
	out := make([]DomainOutage, 0, cfg.Outages)
	if cfg.Rolling {
		step := dur * 3 / 4
		start := from + (to-from)/4
		d0 := rng.Intn(domains)
		for i := 0; i < cfg.Outages; i++ {
			at := start + sim.Time(i)*step
			if at >= to {
				break
			}
			out = append(out, DomainOutage{At: at, Duration: time.Duration(dur), Domain: (d0 + i) % domains})
		}
		return out, nil
	}
	spacing := (to - from) / sim.Time(cfg.Outages+1)
	if dur >= spacing {
		dur = spacing * 3 / 4
	}
	for i := 0; i < cfg.Outages; i++ {
		out = append(out, DomainOutage{
			At:       from + sim.Time(i+1)*spacing - dur/2,
			Duration: time.Duration(dur),
			Domain:   rng.Intn(domains),
		})
	}
	return out, nil
}

// Outages is a correlated-failure injection: its schedule, and the tallies
// the injection fills as it runs.
type Outages struct {
	// Schedule is the outage schedule.
	Schedule []DomainOutage
	// Casualties counts pool nodes killed by outages; Quarantines the
	// majority-degraded instances pulled from routing.
	Casualties, Quarantines int
	// Errs records outages or restorations the pool rejected.
	Errs []string
}

// Inject checks the schedule against the pool (at least two failure
// domains) and the replay window with ValidateOutages, then schedules the
// correlated-failure injections. At each outage the pool fails the whole
// domain; every casualty is mirrored onto its hosting instance (capped at
// nodes-1 — §4.4's "stays online" floor), and any instance left with at
// least half its nodes dead is quarantined out of routing until repaired —
// routing is not speed-aware, so without the gate a majority-degraded
// instance keeps drawing its full query share at crawl speed for the whole
// reload. The router re-admits a quarantined instance implicitly when it is
// the last one ready, so no query is ever dropped. Affected groups'
// recovery controllers are notified; restoration is scheduled at
// At+Duration.
func (res *Outages) Inject(eng *sim.Engine, dep *master.Deployment, opts replay.Options) error {
	pool := dep.Pool()
	if pool.Domains() < 2 {
		return fmt.Errorf("domainfail: pool has %d failure domains, need ≥2", pool.Domains())
	}
	if err := ValidateOutages(res.Schedule, pool.Domains(), opts.From, opts.To); err != nil {
		return err
	}
	hub := dep.Telemetry()
	for _, o := range res.Schedule {
		o := o
		eng.Schedule(o.At, func(sim.Time) {
			cas, err := pool.FailDomain(o.Domain)
			if err != nil {
				res.Errs = append(res.Errs, err.Error())
				return
			}
			res.Casualties += len(cas)
			// Per-owner casualty counts, first-seen (ascending node ID) order
			// so the injection is deterministic.
			counts := map[string]int{}
			var owners []string
			for _, c := range cas {
				if counts[c.Owner] == 0 {
					owners = append(owners, c.Owner)
				}
				counts[c.Owner]++
			}
			var notify []*master.DeployedGroup
			seen := map[*master.DeployedGroup]bool{}
			for _, owner := range owners {
				g, inst, ok := dep.Plane().InstanceByID(owner)
				if !ok {
					// Respread-staged nodes (owner "X/respread"): the staging
					// abort path reclaims them; nothing serves on them yet.
					continue
				}
				for i := 0; i < counts[owner]; i++ {
					if err := inst.FailNode(); err != nil {
						break // degradation cap; the pool record drives the rest
					}
				}
				if counts[owner] >= inst.Nodes() || 2*inst.FailedNodes() >= inst.Nodes() {
					q0 := g.Router.Quarantined()
					g.Router.SetQuarantine(owner, true)
					res.Quarantines += g.Router.Quarantined() - q0
				}
				if !seen[g] {
					seen[g] = true
					notify = append(notify, g)
				}
			}
			if hub != nil {
				hub.Events.Publish(telemetry.Event{
					Type:  telemetry.EventDomainFailed,
					Value: float64(len(cas)),
					Detail: fmt.Sprintf("domain %d down for %v: %d active nodes failed across %d owners",
						o.Domain, o.Duration, len(cas), len(owners)),
				})
			}
			for _, g := range notify {
				if g.Recovery != nil {
					g.Recovery.Notify()
				}
			}
		})
		eng.Schedule(o.At.Add(o.Duration), func(sim.Time) {
			if err := pool.RestoreDomain(o.Domain); err != nil {
				res.Errs = append(res.Errs, err.Error())
				return
			}
			if hub != nil {
				hub.Events.Publish(telemetry.Event{
					Type:   telemetry.EventDomainRestored,
					Detail: fmt.Sprintf("domain %d restored; hibernated capacity acquirable again", o.Domain),
				})
			}
		})
	}
	return nil
}
