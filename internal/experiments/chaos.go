package experiments

import (
	"fmt"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/recovery/chaos"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ChaosRecovery runs the §4.4 crash scenario against a consolidated
// deployment: a randomized-but-seeded schedule of node crashes, repeat
// crashes mid-recovery, and cross-group bursts lands on the largest
// tenant-groups during a one-day replay. Every repair is autonomous — the
// per-group recovery controllers detect each failure on a heartbeat, swap
// the node at the pool, and price replacement startup plus bulk reload by
// the Table 5.1 model while the instance serves degraded. The outcome table
// records the SLA guarantee (min RT-TTP vs P) and the pool leak check.
func ChaosRecovery(env *Env) ([]*Table, error) {
	plan, logs, err := planDefault(env, advisor.DefaultConfig())
	if err != nil {
		return nil, err
	}
	// One deployment of the largest groups (so failure bursts span groups),
	// bounded like the headline SLA validation.
	sub, subLogs := restrictPlan(plan, logs, largestGroups(plan, env.Scale.ReplayGroups))
	cfg := chaos.DefaultConfig()
	cfg.Seed = env.Seed
	sc := &faultScenario{
		plan: sub,
		logs: subLogs,
		pool: func(used int) *cluster.Pool { return cluster.NewPool(2 * used) },
		// The largest groups reload for over a day (Table 5.1, single-stream
		// share of the tenant data), so the drain needs enough room to finish
		// every recovery and re-image before the pool is tallied.
		replay: replay.Options{To: sim.Day, DrainSlack: 3 * 24 * time.Hour},
		setup: func(dep *master.Deployment, opts *replay.Options, _ bool) ([]*workload.TenantLog, error) {
			sched, err := chaos.BuildSchedule(dep, opts.From, opts.To, cfg)
			opts.Failures = sched
			return subLogs, err
		},
	}
	runs, err := sc.runArms(env.Cat, faultArm{name: "crash", posture: master.Options{Immediate: true}, faulted: true})
	if err != nil {
		return nil, err
	}
	run := runs[0]
	out := &run.out

	lifecycles := &Table{
		Title:   "Chaos recovery — autonomous lifecycles (heartbeat detection, pool swap, Table 5.1 reload)",
		Columns: []string{"mppdb", "detected", "replaced", "repaired", "attempts", "node out", "node in"},
	}
	for _, rec := range run.rep.RecoveryEvents {
		repaired := "—"
		if rec.Recovered() {
			repaired = rec.Completed.String()
		}
		lifecycles.AddRow(rec.MPPDB, rec.Detected.String(), rec.Replaced.String(),
			repaired, rec.Attempts, rec.FailedNode, rec.ReplacementNode)
	}

	// Two separate verdicts: autonomous recovery must always complete and
	// leave the pool leak-free; the SLA guarantee is reported as observed —
	// when the schedule degrades every replica of a data-heavy group at
	// once, its RT-TTP genuinely dips for the (long, Table 5.1) reload.
	applied := run.rep.AppliedFailures()
	recVerdict := "PASS"
	if out.Recovered < applied {
		recVerdict = fmt.Sprintf("FAIL: %d of %d recovered, %d in flight", out.Recovered, applied, out.InFlight)
	} else if err := out.Verify(); err != nil {
		recVerdict = fmt.Sprintf("FAIL: %v", err)
	}
	slaVerdict := fmt.Sprintf("held (min RT-TTP %.4f ≥ P=%.4f)", out.MinRTTTP, plan.Config.P)
	if out.MinRTTTP < plan.Config.P {
		slaVerdict = fmt.Sprintf("dipped to %.4f < P=%.4f while concurrent failures degraded a whole group",
			out.MinRTTTP, plan.Config.P)
	}
	outcome := &Table{
		Title:   fmt.Sprintf("Chaos recovery — outcome (%d groups, seed %d)", len(sub.Groups), cfg.Seed),
		Columns: []string{"metric", "value"},
	}
	outcome.AddRow("failures injected / applied", fmt.Sprintf("%d / %d", len(run.rep.FailureEvents), applied))
	outcome.AddRow("recoveries completed / in flight", fmt.Sprintf("%d / %d", out.Recovered, out.InFlight))
	outcome.AddRow("min RT-TTP (guarantee, ≥ P)", fmt.Sprintf("%.4f (P=%.4f)", out.MinRTTTP, plan.Config.P))
	outcome.AddRow("per-query SLA attainment", pct(out.Attainment))
	outcome.AddRow("pool active / expected", fmt.Sprintf("%d / %d", out.ActiveNodes, out.ExpectedActive))
	outcome.AddRow("pool failed / repairing", fmt.Sprintf("%d / %d", out.FailedNodes, out.RepairingNodes))
	outcome.AddRow("recovery verdict", recVerdict)
	outcome.AddRow("SLA guarantee", slaVerdict)
	return []*Table{lifecycles, outcome}, nil
}
