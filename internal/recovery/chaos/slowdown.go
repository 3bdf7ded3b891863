package chaos

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/master"
	"repro/internal/replay"
	"repro/internal/sim"
)

// SlowProfile names a fail-slow injection shape.
type SlowProfile string

const (
	// ProfileStuck drops the instance to Factor at At and holds it there for
	// the whole Duration — the classic stuck-at-slow gray failure.
	ProfileStuck SlowProfile = "stuck"
	// ProfileGradual deepens the slowdown in Steps even decrements from
	// healthy to Factor across the Duration — a dying disk or a slowly
	// filling queue.
	ProfileGradual SlowProfile = "gradual"
	// ProfileFlapping alternates between Factor and full speed every Period
	// — the intermittent fault that defeats naive threshold detectors.
	ProfileFlapping SlowProfile = "flapping"
)

// Slowdown is one scheduled fail-slow episode against a group instance.
type Slowdown struct {
	// At and Duration bound the episode.
	At       sim.Time
	Duration time.Duration
	// Group and Instance locate the target (instance is the group-local
	// index, like replay.Failure).
	Group    string
	Instance int
	// Profile shapes the episode; Factor is its depth in (0,1) — the
	// fraction of nominal speed the instance drops to.
	Profile SlowProfile
	Factor  float64
	// Steps is the gradual profile's decrement count (≥1).
	Steps int
	// Period is the flapping profile's half-cycle.
	Period time.Duration
}

// ScheduleError reports an invalid slowdown schedule entry — returned typed
// at construction so a bad schedule can never silently misbehave mid-run.
type ScheduleError struct {
	// Index is the offending entry's position in the schedule.
	Index int
	// Reason is a stable, machine-matchable failure class: "zero_duration",
	// "out_of_horizon", "bad_factor", "bad_profile", "bad_steps",
	// "bad_period", or "overlap".
	Reason string
	// Detail elaborates for humans.
	Detail string
}

func (e *ScheduleError) Error() string {
	return fmt.Sprintf("chaos: slowdown[%d]: %s (%s)", e.Index, e.Reason, e.Detail)
}

// ValidateSlowdowns checks a schedule against the run window [from, to):
// every entry must have positive duration, lie fully inside the horizon,
// carry a sane profile shape, and no two entries may overlap on the same
// (group, instance). The first violation is returned as a *ScheduleError.
func ValidateSlowdowns(entries []Slowdown, from, to sim.Time) error {
	for i, e := range entries {
		if e.Duration <= 0 {
			return &ScheduleError{Index: i, Reason: "zero_duration",
				Detail: fmt.Sprintf("duration %v", e.Duration)}
		}
		end := e.At.Add(e.Duration)
		if e.At < from || end > to {
			return &ScheduleError{Index: i, Reason: "out_of_horizon",
				Detail: fmt.Sprintf("[%v,%v) outside [%v,%v)", e.At, end, from, to)}
		}
		if e.Factor <= 0 || e.Factor >= 1 {
			return &ScheduleError{Index: i, Reason: "bad_factor",
				Detail: fmt.Sprintf("factor %v outside (0,1)", e.Factor)}
		}
		switch e.Profile {
		case ProfileStuck:
		case ProfileGradual:
			if e.Steps < 1 {
				return &ScheduleError{Index: i, Reason: "bad_steps",
					Detail: fmt.Sprintf("gradual profile with %d steps", e.Steps)}
			}
		case ProfileFlapping:
			if e.Period <= 0 || e.Period >= e.Duration {
				return &ScheduleError{Index: i, Reason: "bad_period",
					Detail: fmt.Sprintf("period %v against duration %v", e.Period, e.Duration)}
			}
		default:
			return &ScheduleError{Index: i, Reason: "bad_profile",
				Detail: fmt.Sprintf("unknown profile %q", e.Profile)}
		}
	}
	// Overlap check per (group, instance), preserving original indices.
	type span struct {
		idx      int
		from, to sim.Time
	}
	byTarget := make(map[string][]span)
	for i, e := range entries {
		key := fmt.Sprintf("%s/%d", e.Group, e.Instance)
		byTarget[key] = append(byTarget[key], span{i, e.At, e.At.Add(e.Duration)})
	}
	for _, spans := range byTarget {
		sort.Slice(spans, func(a, b int) bool {
			if spans[a].from != spans[b].from {
				return spans[a].from < spans[b].from
			}
			return spans[a].idx < spans[b].idx
		})
		for k := 1; k < len(spans); k++ {
			if spans[k].from < spans[k-1].to {
				i := spans[k].idx
				return &ScheduleError{Index: i, Reason: "overlap",
					Detail: fmt.Sprintf("entry %d overlaps entry %d on %s/%d",
						i, spans[k-1].idx, entries[i].Group, entries[i].Instance)}
			}
		}
	}
	return nil
}

// Slowdowns is a fail-slow schedule; as a replay.Injector it validates the
// schedule against the replay window and schedules every episode.
type Slowdowns []Slowdown

// Inject schedules every episode's SetSlowdown steps on the engine after
// checking the schedule with ValidateSlowdowns; a target the deployment
// cannot resolve is a "bad_target" *ScheduleError. Every episode restores
// full speed at its end, so residual slowdown at drain time means the run
// itself misbehaved.
func (entries Slowdowns) Inject(eng *sim.Engine, dep *master.Deployment, opts replay.Options) error {
	if err := ValidateSlowdowns(entries, opts.From, opts.To); err != nil {
		return err
	}
	byID := make(map[string]*master.DeployedGroup)
	for _, g := range dep.Groups() {
		byID[g.Plan.ID] = g
	}
	for i, e := range entries {
		g, ok := byID[e.Group]
		if !ok {
			return &ScheduleError{Index: i, Reason: "bad_target",
				Detail: fmt.Sprintf("unknown group %s", e.Group)}
		}
		if e.Instance < 0 || e.Instance >= len(g.Instances) {
			return &ScheduleError{Index: i, Reason: "bad_target",
				Detail: fmt.Sprintf("instance %d of %d in %s", e.Instance, len(g.Instances), e.Group)}
		}
		inst := g.Instances[e.Instance]
		end := e.At.Add(e.Duration)
		switch e.Profile {
		case ProfileStuck:
			f := e.Factor
			eng.Schedule(e.At, func(sim.Time) { _ = inst.SetSlowdown(f) })
		case ProfileGradual:
			step := e.Duration / time.Duration(e.Steps)
			for k := 0; k < e.Steps; k++ {
				f := 1 - (1-e.Factor)*float64(k+1)/float64(e.Steps)
				eng.Schedule(e.At.Add(time.Duration(k)*step), func(sim.Time) { _ = inst.SetSlowdown(f) })
			}
		case ProfileFlapping:
			f := e.Factor
			for k, t := 0, e.At; t < end; k, t = k+1, t.Add(e.Period) {
				if k%2 == 0 {
					eng.Schedule(t, func(sim.Time) { _ = inst.SetSlowdown(f) })
				} else {
					eng.Schedule(t, func(sim.Time) { _ = inst.SetSlowdown(1) })
				}
			}
		}
		eng.Schedule(end, func(sim.Time) { _ = inst.SetSlowdown(1) })
	}
	return nil
}
