package experiments

import (
	"fmt"
	"time"

	"repro/internal/admission"
	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/recovery/chaos"
	"repro/internal/replay"
	"repro/internal/workload"
)

// OverloadStorm replays the same seeded noisy-tenant storm against the
// plan's largest tenant-group twice: once bare and once with per-group
// admission control armed (contract enforcement derived from the tenants'
// own logs, bounded admission queue, brownout controller). The first run
// shows how one over-contract tenant burns its co-tenants' guarantee
// through processor-sharing contention; the second shows the aggressor
// being throttled with typed 429s while every contract-abiding tenant's
// attainment holds. A third, storm-free control run fixes each tenant's
// intrinsic attainment.
func OverloadStorm(env *Env) ([]*Table, error) {
	plan, logs, err := planDefault(env, advisor.DefaultConfig())
	if err != nil {
		return nil, err
	}
	// The storm targets one group; deploy only the largest (first on ties)
	// so the replay stays bounded.
	gi := 0
	for i := range plan.Groups {
		if len(plan.Groups[i].TenantIDs) > len(plan.Groups[gi].TenantIDs) {
			gi = i
		}
	}
	sub, subLogs := restrictPlan(plan, logs, []int{gi})
	cfg := chaos.DefaultOverloadConfig()
	cfg.Seed = env.Seed
	var storms []*chaos.Storm
	sc := &faultScenario{
		plan: sub,
		logs: subLogs,
		pool: cluster.NewPool,
		// Replay the advisor's whole horizon: the RT-TTP guarantee holds over
		// that window, so any sub-window (e.g. one busy day) can dip below P
		// even without a storm.
		replay: replay.Options{To: env.Horizon(), SLASlack: stormSLASlack, DrainSlack: 6 * time.Hour},
		setup: func(dep *master.Deployment, opts *replay.Options, faulted bool) ([]*workload.TenantLog, error) {
			scfg := cfg
			if !faulted {
				scfg.Aggressors = 0
			}
			storm, err := chaos.NewStorm(dep, env.Cat, subLogs, scfg)
			if err != nil {
				return nil, err
			}
			storms = append(storms, storm)
			opts.Injectors = []replay.Injector{storm}
			opts.Admit = storm.Group.Admission != nil
			return storm.Logs(subLogs), nil
		},
	}
	posture := master.Options{Immediate: true, MonitorWindow: time.Hour}
	acfg := admission.DefaultConfig()
	acfg.Contracts = admission.ContractsFromLogs(subLogs, acfg.Headroom)
	protectedPosture := posture
	protectedPosture.Admission = &acfg
	runs, err := sc.runArms(env.Cat,
		faultArm{name: "control", posture: posture},
		faultArm{name: "bare", posture: posture, faulted: true},
		faultArm{name: "protected", posture: protectedPosture, faulted: true})
	if err != nil {
		return nil, err
	}
	ctl, base, prot := runs[0], runs[1], runs[2]
	storm := storms[2]
	minCompliant := make([]float64, len(runs))
	for i, r := range runs {
		minCompliant[i] = storms[i].MinCompliant(&r.out)
	}

	p := plan.Config.P
	adm := map[string]admission.TenantStat{}
	for _, st := range storm.Group.Admission.TenantStats() {
		adm[st.Tenant] = st
	}
	outcomes := &Table{
		Title: fmt.Sprintf("Overload storm — per-tenant outcome (group %s, seed %d, 5× over contract)",
			storm.Group.Plan.ID, env.Seed),
		Columns: []string{"tenant", "aggressor", "control", "bare", "admission", "admitted", "throttled", "shed"},
	}
	for _, tn := range storm.Group.Members {
		st := adm[tn.ID]
		outcomes.AddRow(tn.ID, fmt.Sprint(storm.Aggressor(tn.ID)), pct(ctl.out.TenantAttainment(tn.ID)),
			pct(base.out.TenantAttainment(tn.ID)), pct(prot.out.TenantAttainment(tn.ID)),
			st.Admitted, st.Throttled, st.Shed)
	}

	// Verdicts are measured against each tenant's no-storm control: the bare
	// storm must drag some compliant tenant below both its intrinsic
	// attainment and P, and the armed run must hold every compliant tenant at
	// its intrinsic floor (or P, whichever is lower).
	burned := func(r *faultRun) (string, bool) {
		for _, tn := range storm.Group.Members {
			floor := min(p, ctl.out.TenantAttainment(tn.ID))
			if a := r.out.TenantAttainment(tn.ID); !storm.Aggressor(tn.ID) && a < floor {
				return tn.ID, true
			}
		}
		return "", false
	}
	baseVerdict := fmt.Sprintf("storm absorbed without damage (min compliant %s)", pct(minCompliant[1]))
	if id, ok := burned(base); ok {
		baseVerdict = fmt.Sprintf("storm burned compliant %s from %s to %s (P=%.4f)",
			id, pct(ctl.out.TenantAttainment(id)), pct(base.out.TenantAttainment(id)), p)
	}
	protVerdict := "PASS"
	if err := prot.out.Verify(); err != nil {
		protVerdict = fmt.Sprintf("FAIL: %v", err)
	} else if err := storm.Verify(&prot.out, min(p, minCompliant[0])); err != nil {
		protVerdict = fmt.Sprintf("FAIL: %v", err)
	} else if id, ok := burned(prot); ok {
		protVerdict = fmt.Sprintf("FAIL: compliant %s at %s below its control %s",
			id, pct(prot.out.TenantAttainment(id)), pct(ctl.out.TenantAttainment(id)))
	}
	summary := &Table{
		Title:   fmt.Sprintf("Overload storm — control vs bare vs admission-controlled (aggressors %v)", storm.Aggressors),
		Columns: []string{"metric", "control", "bare", "admission"},
	}
	row := func(metric string, cell func(i int, r *faultRun) any) { armRow(summary, runs, metric, cell) }
	row("storm submitted", func(i int, _ *faultRun) any { return storms[i].Submitted })
	row("storm admitted", func(i int, _ *faultRun) any { return storms[i].Admitted })
	row("storm throttled (429)", func(i int, _ *faultRun) any { return storms[i].Throttled })
	row("storm shed (503)", func(i int, _ *faultRun) any { return storms[i].Shed })
	row("compliant throttled", func(_ int, r *faultRun) any { return r.rep.Throttled })
	row("compliant shed", func(_ int, r *faultRun) any { return r.rep.Shed })
	row("min compliant attainment", func(i int, _ *faultRun) any { return pct(minCompliant[i]) })
	row("min RT-TTP", func(_ int, r *faultRun) any { return fmt.Sprintf("%.4f", r.out.MinRTTTP) })
	summary.AddRow("bare verdict", "", baseVerdict, "")
	summary.AddRow(fmt.Sprintf("protection verdict (compliant ≥ min(P=%.4f, control))", p), "", "", protVerdict)
	return []*Table{outcomes, summary}, nil
}
