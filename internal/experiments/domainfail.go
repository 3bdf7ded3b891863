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

// DomainFail measures correlated-failure resilience: the same seeded schedule
// of whole-domain outages replays three times against identical tenants on a
// three-domain pool sized scarce (a fifth of spare capacity, so a domain loss
// outstrips the free list). The no-fault arm fixes the attainment ceiling;
// the bare arm (no spread placement, classic per-group backoff) shows what a
// rack loss costs when groups can collapse into one domain; the protected arm
// adds spread-aware placement, quarantine re-routing, the cluster scarcity
// triage, and post-restoration re-spread. The verdict is the paper-style
// restoration bar: protected attainment within two points of no-fault, zero
// dropped queries everywhere, every pool leak-free.
func DomainFail(env *Env) ([]*Table, error) {
	const domains = 3
	acfg := advisor.DefaultConfig()
	acfg.FailureDomains = domains
	plan, logs, err := planDefault(env, acfg)
	if err != nil {
		return nil, err
	}
	sub, subLogs := restrictPlan(plan, logs, recoveryBoundGroups(plan, logs, env.Scale.ReplayGroups))
	cfg := chaos.DefaultDomainFailConfig()
	cfg.Seed = env.Seed
	var outages []*chaos.Outages
	sc := &faultScenario{
		plan: sub,
		logs: subLogs,
		pool: func(used int) *cluster.Pool { return cluster.NewPoolDomains(used+(used+4)/5, domains) },
		// Recoveries queue behind the outage and pay Table 5.1 reloads that
		// run for hours per node on the largest groups.
		replay: replay.Options{To: sim.Day, SLASlack: stormSLASlack, DrainSlack: 3 * 24 * time.Hour},
		setup: func(dep *master.Deployment, opts *replay.Options, faulted bool) ([]*workload.TenantLog, error) {
			o := &chaos.Outages{Schedule: []chaos.DomainOutage{}}
			if faulted {
				var err error
				if o.Schedule, err = chaos.BuildOutages(dep.Pool().Domains(), opts.From, opts.To, cfg); err != nil {
					return nil, err
				}
			}
			outages = append(outages, o)
			opts.Injectors = []replay.Injector{o}
			return chaos.MemberLogs(subLogs, dep.Groups()...), nil
		},
	}
	// The protected posture spreads placement, triages scarce capacity, and
	// re-replicates a casualty's shard from its surviving peers in
	// parallel; bare keeps classic placement and the single-stream reload.
	posture := func(protect bool) master.Options {
		rcfg := recovery.DefaultConfig()
		rcfg.ParallelReload = protect
		opts := master.Options{Immediate: true, Recovery: &rcfg, NoSpread: !protect}
		if protect {
			tc := recovery.DefaultTriageConfig()
			opts.Triage = &tc
		}
		return opts
	}
	runs, err := sc.runArms(env.Cat,
		faultArm{name: "baseline", posture: posture(true)},
		faultArm{name: "bare", posture: posture(false), faulted: true},
		faultArm{name: "protected", posture: posture(true), faulted: true})
	if err != nil {
		return nil, err
	}
	baseline, protected := runs[0], runs[2]

	schedule := &Table{
		Title:   fmt.Sprintf("Correlated failure — injected domain outages (%d domains, seed %d)", domains, env.Seed),
		Columns: []string{"at", "domain", "duration"},
	}
	for _, o := range outages[1].Schedule {
		schedule.AddRow(o.At.String(), o.Domain, o.Duration.String())
	}

	verdict := "PASS"
	if err := verifyOutages(runs, outages); err != nil {
		verdict = fmt.Sprintf("FAIL: %v", err)
	} else if protected.out.Attainment < baseline.out.Attainment-0.02 {
		verdict = fmt.Sprintf("FAIL: protected attainment %.4f more than 2 points below no-fault %.4f",
			protected.out.Attainment, baseline.out.Attainment)
	} else if protected.out.Collapsed != 0 {
		verdict = fmt.Sprintf("FAIL: %d protected groups still collapsed onto one domain", protected.out.Collapsed)
	}

	triage := func(r *faultRun) string {
		tri := r.dep.Triage()
		if tri == nil {
			return "—"
		}
		enq, granted := tri.Stats()
		return fmt.Sprintf("%d/%d", enq, granted)
	}
	outcome := &Table{
		Title: fmt.Sprintf("Correlated failure — bare vs spread+triage (%d groups, seed %d)",
			len(sub.Groups), env.Seed),
		Columns: []string{"metric", "no-fault", "bare", "protected"},
	}
	row := func(metric string, cell func(i int, r *faultRun) any) { armRow(outcome, runs, metric, cell) }
	row("per-query SLA attainment", func(_ int, r *faultRun) any { return pct(r.out.Attainment) })
	row("worst member attainment", func(_ int, r *faultRun) any { return pct(r.out.WorstAttainment) })
	row("min RT-TTP", func(_ int, r *faultRun) any { return fmt.Sprintf("%.4f", r.out.MinRTTTP) })
	row("node casualties", func(i int, _ *faultRun) any { return outages[i].Casualties })
	row("instances quarantined", func(i int, _ *faultRun) any { return outages[i].Quarantines })
	row("dropped queries", func(_ int, r *faultRun) any { return r.out.Dropped })
	row("recovery lifecycles (triaged)", func(_ int, r *faultRun) any {
		return fmt.Sprintf("%d (%d)", r.out.Lifecycles, r.out.Triaged)
	})
	row("triage claims enqueued/granted", func(_ int, r *faultRun) any { return triage(r) })
	row("re-spread cutovers", func(_ int, r *faultRun) any { return r.out.Respreads })
	row("groups collapsed at end", func(_ int, r *faultRun) any { return r.out.Collapsed })
	row("pool active/expected", func(_ int, r *faultRun) any {
		return fmt.Sprintf("%d/%d", r.out.ActiveNodes, r.out.ExpectedActive)
	})
	outcome.AddRow("verdict", "", "", verdict)
	return []*Table{schedule, outcome}, nil
}

// verifyOutages checks that every arm's outages landed, then applies the
// shared end-state bar.
func verifyOutages(runs []*faultRun, outages []*chaos.Outages) error {
	for i, r := range runs {
		if len(outages[i].Errs) > 0 {
			return fmt.Errorf("%s: injection errors: %v", r.name, outages[i].Errs)
		}
	}
	return verifyArms(runs)
}
