// Package chaos builds the faults replay.Run injects into a deployment to
// exercise the §4.4 recovery loop and the SLA guarantee: seeded crash
// schedules (lone crashes, repeat crashes mid-recovery, cross-group
// bursts) for replay.Options.Failures, and three replay.Injectors —
// fail-slow episodes (Slowdowns), whole-domain outages (Outages) and a
// noisy-tenant storm (Storm). replay.Inspect then condenses the run for the
// shared verifiers: the guarantee held (every group's sampled RT-TTP stayed
// ≥ the plan's P), nothing was dropped, and the node pool came back
// leak-free.
//
// Every builder is a pure function of (deployment shape, window, config):
// with a fixed Seed a fault run on a shared clock domain is as replayable
// as any other experiment.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/master"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Config parameterizes a crash schedule.
type Config struct {
	// Seed fixes the schedule's randomness.
	Seed int64
	// MeanBetween is the mean gap between failure instants (exponentially
	// distributed).
	MeanBetween time.Duration
	// RepeatProb is the chance a crash is followed by a second crash of the
	// same instance RepeatDelay later — typically while the first recovery
	// is still reloading.
	RepeatProb float64
	// RepeatDelay is the lag of the repeat crash.
	RepeatDelay time.Duration
	// BurstProb is the chance a failure instant hits every group at once
	// instead of one.
	BurstProb float64
	// MaxFailures bounds the schedule.
	MaxFailures int
}

// DefaultConfig returns a moderate failure mix: a crash every ~2 h, a quarter
// of them repeated mid-recovery, one in ten a cross-group burst.
func DefaultConfig() Config {
	return Config{
		Seed:        1,
		MeanBetween: 2 * time.Hour,
		RepeatProb:  0.25,
		RepeatDelay: 10 * time.Minute,
		BurstProb:   0.1,
		MaxFailures: 16,
	}
}

// BuildSchedule derives the crash schedule for the deployment over the
// window [from, to). It is deterministic in (deployment group order,
// window, cfg).
func BuildSchedule(dep *master.Deployment, from, to sim.Time, cfg Config) ([]replay.Failure, error) {
	if to <= from {
		return nil, fmt.Errorf("chaos: window [%v,%v)", from, to)
	}
	if cfg.MeanBetween <= 0 || cfg.MaxFailures < 1 {
		return nil, fmt.Errorf("chaos: MeanBetween=%v MaxFailures=%d", cfg.MeanBetween, cfg.MaxFailures)
	}
	if cfg.RepeatProb > 0 && cfg.RepeatDelay <= 0 {
		return nil, fmt.Errorf("chaos: RepeatProb without RepeatDelay")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	groups := dep.Groups()
	var out []replay.Failure
	t := from
	for len(out) < cfg.MaxFailures {
		t = t.Add(time.Duration(rng.ExpFloat64() * float64(cfg.MeanBetween)))
		if t >= to {
			break
		}
		if rng.Float64() < cfg.BurstProb {
			for _, g := range groups {
				if len(out) >= cfg.MaxFailures {
					break
				}
				out = append(out, replay.Failure{At: t, Group: g.Plan.ID, Instance: rng.Intn(len(g.Instances))})
			}
			continue
		}
		g := groups[rng.Intn(len(groups))]
		f := replay.Failure{At: t, Group: g.Plan.ID, Instance: rng.Intn(len(g.Instances))}
		out = append(out, f)
		if len(out) < cfg.MaxFailures && rng.Float64() < cfg.RepeatProb {
			out = append(out, replay.Failure{At: t.Add(cfg.RepeatDelay), Group: f.Group, Instance: f.Instance})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out, nil
}

// LargestGroup returns the deployment's most-populated group, the first in
// deployment order on ties — the target of the one-group storms.
func LargestGroup(dep *master.Deployment) (*master.DeployedGroup, error) {
	groups := dep.Groups()
	if len(groups) == 0 {
		return nil, fmt.Errorf("chaos: empty deployment")
	}
	target := groups[0]
	for _, g := range groups[1:] {
		if len(g.Members) > len(target.Members) {
			target = g
		}
	}
	return target, nil
}

// MemberLogs returns the logs of the groups' members in group order, then
// member order — the order the fault scenarios replay them in, which fixes
// how same-instant submissions tie. Members without a log are skipped.
func MemberLogs(logs []*workload.TenantLog, groups ...*master.DeployedGroup) []*workload.TenantLog {
	byID := make(map[string]*workload.TenantLog, len(logs))
	for _, tl := range logs {
		byID[tl.Tenant.ID] = tl
	}
	var out []*workload.TenantLog
	for _, g := range groups {
		for _, tn := range g.Members {
			if tl := byID[tn.ID]; tl != nil {
				out = append(out, tl)
			}
		}
	}
	return out
}
