package experiments

import (
	"fmt"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/recovery"
	"repro/internal/recovery/chaos"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/workload"
)

// GrayFail measures the fail-slow response ladder: the same seeded storm of
// fractional slowdowns (stuck, gradual, flapping) against the largest
// group's members replays three times against identical deployments of the
// largest tenant-groups — once with no faults at all (the attainment
// baseline), once bare (the deployment just eats the slowdown), and once
// with the gray detector armed (peer-relative anomaly detection → hedged
// duplicates → drain-and-replace). The verdict is the paper-style
// restoration bar: the protected run's per-query SLA attainment must land
// within one point of the no-fault baseline, while the bare run shows what
// gray failure costs an undefended deployment.
func GrayFail(env *Env) ([]*Table, error) {
	plan, logs, err := planDefault(env, advisor.DefaultConfig())
	if err != nil {
		return nil, err
	}
	sub, subLogs := restrictPlan(plan, logs, largestGroups(plan, env.Scale.ReplayGroups))
	cfg := chaos.DefaultGrayFailConfig()
	cfg.Seed = env.Seed
	var schedule chaos.Slowdowns
	sc := &faultScenario{
		plan: sub,
		logs: subLogs,
		pool: func(used int) *cluster.Pool { return cluster.NewPool(2 * used) },
		// Drain-and-replace pays the Table 5.1 reload of the group's share,
		// which for the largest groups runs past a day.
		replay: replay.Options{To: sim.Day, SLASlack: stormSLASlack, DrainSlack: 3 * 24 * time.Hour},
		setup: func(dep *master.Deployment, opts *replay.Options, faulted bool) ([]*workload.TenantLog, error) {
			target, err := chaos.LargestGroup(dep)
			if err != nil {
				return nil, err
			}
			sched := chaos.Slowdowns{}
			if faulted {
				if sched, err = chaos.BuildSlowdowns(target, opts.From, opts.To, cfg); err != nil {
					return nil, err
				}
				schedule = sched
			}
			opts.Injectors = []replay.Injector{sched}
			return chaos.MemberLogs(subLogs, target), nil
		},
	}

	// Affinity routing leaves some instances sample-sparse, so the profile
	// window is short enough for the mean to track an onset within a few
	// completions. Clearing demands a healthy stretch longer than the
	// flapping profile's off-phase (BuildSlowdowns flaps on a Duration/6
	// half-cycle), so a flapper stays hedged across its whole episode
	// instead of being re-admitted and re-detected every cycle. Drain
	// patience must outlast a transient episode (~2 h here) so hedging
	// carries the group through and the multi-day Table 5.1 reload is
	// reserved for instances that stay sick.
	gcfg := recovery.DefaultGrayConfig()
	gcfg.Window = 16
	gcfg.MinSamples = 4
	gcfg.ConfirmBeats = 2
	gcfg.ClearBeats = 30
	gcfg.DrainAfter = 4 * time.Hour
	runs, err := sc.runArms(env.Cat,
		faultArm{name: "baseline", posture: master.Options{Immediate: true}},
		faultArm{name: "bare", posture: master.Options{Immediate: true}, faulted: true},
		faultArm{name: "protected", posture: master.Options{Immediate: true, Gray: &gcfg}, faulted: true})
	if err != nil {
		return nil, err
	}
	baseline, protected := runs[0], runs[2]

	// The detector's episodes and the router's hedge tallies, per arm.
	type ladder struct {
		events                        []recovery.GrayEvent
		suspected, confirmed, drained int
		hedged, wins                  int64
	}
	ladders := make([]ladder, len(runs))
	for i, r := range runs {
		target, err := chaos.LargestGroup(r.dep)
		if err != nil {
			return nil, err
		}
		l := &ladders[i]
		if target.Gray != nil {
			l.events = target.Gray.Events()
		}
		for _, ev := range l.events {
			l.suspected++
			if ev.Confirmed > 0 {
				l.confirmed++
			}
			if ev.Drained > 0 {
				l.drained++
			}
		}
		l.hedged, l.wins = target.Router.HedgeStats()
	}

	scheduleTable := &Table{
		Title:   fmt.Sprintf("Gray failure — injected fail-slow schedule (group %s, seed %d)", schedule[0].Group, env.Seed),
		Columns: []string{"at", "instance", "profile", "factor", "duration"},
	}
	for _, e := range schedule {
		scheduleTable.AddRow(e.At.String(), e.Instance, string(e.Profile),
			fmt.Sprintf("%.2f", e.Factor), e.Duration.String())
	}

	episodes := &Table{
		Title:   "Gray failure — detector episodes (protected run)",
		Columns: []string{"mppdb", "suspected", "confirmed", "drained", "cleared", "resolution", "hedged in-flight"},
	}
	mark := func(t sim.Time) string {
		if t == 0 {
			return "—"
		}
		return t.String()
	}
	for _, ev := range ladders[2].events {
		episodes.AddRow(ev.MPPDB, ev.Suspected.String(), mark(ev.Confirmed),
			mark(ev.Drained), mark(ev.Cleared), ev.Resolution, ev.Hedged)
	}

	// A ladder that never fires protects nothing: the armed detector must
	// confirm at least one episode of the schedule.
	verdict := "PASS"
	if err := verifyArms(runs); err != nil {
		verdict = fmt.Sprintf("FAIL: %v", err)
	} else if ladders[2].confirmed == 0 {
		verdict = "FAIL: protected: grayfail: detector armed but never confirmed a gray instance"
	} else if protected.out.Attainment < baseline.out.Attainment-0.01 {
		verdict = fmt.Sprintf("FAIL: protected attainment %.4f more than 1%% below no-fault %.4f",
			protected.out.Attainment, baseline.out.Attainment)
	}

	outcome := &Table{
		Title:   fmt.Sprintf("Gray failure — bare vs hedge→drain ladder (%d groups, seed %d)", len(sub.Groups), env.Seed),
		Columns: []string{"metric", "no-fault", "bare", "protected"},
	}
	row := func(metric string, cell func(i int, r *faultRun) any) { armRow(outcome, runs, metric, cell) }
	row("per-query SLA attainment", func(_ int, r *faultRun) any { return pct(r.out.Attainment) })
	row("worst member attainment", func(_ int, r *faultRun) any { return pct(r.out.WorstAttainment) })
	row("min RT-TTP", func(_ int, r *faultRun) any { return fmt.Sprintf("%.4f", r.out.MinRTTTP) })
	row("episodes suspected/confirmed/drained", func(i int, _ *faultRun) any {
		l := ladders[i]
		return fmt.Sprintf("%d/%d/%d", l.suspected, l.confirmed, l.drained)
	})
	row("queries hedged (peer wins)", func(i int, _ *faultRun) any {
		return fmt.Sprintf("%d (%d)", ladders[i].hedged, ladders[i].wins)
	})
	row("pool active/expected", func(_ int, r *faultRun) any {
		return fmt.Sprintf("%d/%d", r.out.ActiveNodes, r.out.ExpectedActive)
	})
	outcome.AddRow("verdict", "", "", verdict)
	return []*Table{scheduleTable, episodes, outcome}, nil
}
