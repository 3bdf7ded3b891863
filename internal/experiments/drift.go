package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/epoch"
	"repro/internal/master"
	"repro/internal/monitor"
	"repro/internal/online"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/tdd"
	"repro/internal/workload"
)

// DriftConfig parameterizes the churn and activity-shift schedule of the
// continuous re-consolidation experiment.
type DriftConfig struct {
	// Window is the replayed interval.
	Window sim.Time
	// TickEvery is the online control loop's virtual period.
	TickEvery time.Duration
	// Joins is how many reserve tenants register during the window (one
	// every two hours from JoinStart).
	Joins int
	// Leaves is how many deployed tenants de-register during the window.
	Leaves int
	// JoinStart, LeaveStart anchor the churn schedule.
	JoinStart, LeaveStart sim.Time
	// TakeOverStart is when the §7.5 activity shift begins: one deployed
	// tenant turns continuously active and drifts away from its planned
	// profile.
	TakeOverStart sim.Time
}

// DefaultDriftConfig returns the standard one-day drift schedule.
func DefaultDriftConfig() DriftConfig {
	return DriftConfig{
		Window:        sim.Day,
		TickEvery:     15 * time.Minute,
		Joins:         2,
		Leaves:        2,
		JoinStart:     2 * sim.Hour,
		LeaveStart:    5 * sim.Hour,
		TakeOverStart: 6 * sim.Hour,
	}
}

// DriftResult is the outcome of the drift scenario: the online run's control
// loop statistics and query accounting against the offline oracle re-solve.
type DriftResult struct {
	// Stats is the online control loop's final counter snapshot.
	Stats online.Stats
	// Migrations is every live migration the loop executed.
	Migrations []online.Migration
	// Report is the loop's last scoped re-consolidation report (nil when
	// local repair sufficed).
	Report *advisor.ReconsolidationReport
	// Submitted / SubmitErrors / Completed account every query of the online
	// run (replayed, take-over, joiner, and leaver submissions combined).
	Submitted, SubmitErrors, Completed int
	// OnlineAttainment and OracleAttainment are the per-query SLA attainment
	// of the online run and of the offline oracle re-solve (which knows the
	// final population and the shifted activity in advance).
	OnlineAttainment, OracleAttainment float64
	// Hash fingerprints the online run's telemetry (events + trace): equal
	// seeds must produce equal hashes.
	Hash string
	// Victim is the taken-over tenant; Joined and Left are the churned IDs.
	Victim string
	Joined []string
	Left   []string
	Groups int
}

// NoDrop reports whether every successfully submitted query completed —
// the live-migration guarantee.
func (r *DriftResult) NoDrop() bool {
	return r.Completed == r.Submitted-r.SubmitErrors
}

// AttainmentDelta returns oracle minus online attainment (positive = online
// is worse).
func (r *DriftResult) AttainmentDelta() float64 {
	return r.OracleAttainment - r.OnlineAttainment
}

// driftWorld is the shared setup of the online and oracle runs.
type driftWorld struct {
	acfg    advisor.Config
	subPlan *advisor.Plan
	subLogs []*workload.TenantLog // initially deployed population
	joiners []*workload.TenantLog
	leavers []string
	victim  string
	logByID map[string]*workload.TenantLog
}

// buildDriftWorld plans the default population and carves the experiment's
// sub-world: the largest groups get deployed, reserve tenants from other
// groups become joiners, members of the second-picked group become leavers,
// and the largest group's first member is the take-over victim.
func buildDriftWorld(env *Env, cfg DriftConfig) (*driftWorld, error) {
	acfg := advisor.DefaultConfig()
	acfg.SolverWorkers = SolverWorkers
	plan, logs, err := planDefault(env, acfg)
	if err != nil {
		return nil, err
	}
	type cand struct{ gi, members int }
	cands := make([]cand, 0, len(plan.Groups))
	for i := range plan.Groups {
		cands = append(cands, cand{i, len(plan.Groups[i].TenantIDs)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].members != cands[j].members {
			return cands[i].members > cands[j].members
		}
		return cands[i].gi < cands[j].gi
	})
	picked := cands
	if len(picked) > env.Scale.ReplayGroups {
		picked = picked[:env.Scale.ReplayGroups]
	}
	w := &driftWorld{acfg: acfg, logByID: map[string]*workload.TenantLog{}}
	for _, tl := range logs {
		w.logByID[tl.Tenant.ID] = tl
	}
	w.subPlan = &advisor.Plan{Config: plan.Config}
	inWorld := map[string]bool{}
	for _, c := range picked {
		pg := plan.Groups[c.gi]
		w.subPlan.Groups = append(w.subPlan.Groups, pg)
		for _, id := range pg.TenantIDs {
			inWorld[id] = true
			w.subLogs = append(w.subLogs, w.logByID[id])
		}
	}
	if len(w.subPlan.Groups) == 0 {
		return nil, fmt.Errorf("drift: the plan has no groups")
	}
	// Joiners: reserve tenants from groups outside the sub-world.
	for _, c := range cands[len(picked):] {
		if len(w.joiners) >= cfg.Joins {
			break
		}
		for _, id := range plan.Groups[c.gi].TenantIDs {
			if len(w.joiners) >= cfg.Joins {
				break
			}
			w.joiners = append(w.joiners, w.logByID[id])
		}
	}
	w.victim = w.subPlan.Groups[0].TenantIDs[0]
	// Leavers: from the last picked group, never the victim.
	last := w.subPlan.Groups[len(w.subPlan.Groups)-1]
	for _, id := range last.TenantIDs {
		if len(w.leavers) >= cfg.Leaves {
			break
		}
		if id != w.victim {
			w.leavers = append(w.leavers, id)
		}
	}
	return w, nil
}

// extraTraffic schedules out-of-band submissions (joiners after their join
// time, leavers before their departure) and tallies them.
type extraTraffic struct {
	submitted, errors int
}

func (x *extraTraffic) schedule(eng *sim.Engine, dep *master.Deployment, env *Env,
	tl *workload.TenantLog, from, to sim.Time) {
	for _, ev := range tl.Materialize(from, to) {
		ev := ev
		class, ok := env.Cat.ByID(ev.ClassID)
		if !ok {
			continue
		}
		eng.Schedule(ev.At, func(sim.Time) {
			x.submitted++
			if _, err := dep.SubmitWithTarget(ev.Tenant, class, ev.SLATarget); err != nil {
				x.errors++
			}
		})
	}
}

// telemetryHash fingerprints a deployment's event log and trace.
func telemetryHash(dep *master.Deployment) string {
	h := sha256.New()
	tel := dep.Telemetry()
	if tel != nil {
		tel.Events.Dump(h)
		tel.Tracer.Dump(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runDriftOnline executes the online half: deploy the initial sub-plan, arm
// the control loop, schedule churn and the take-over, and replay the window.
func runDriftOnline(env *Env, cfg DriftConfig, w *driftWorld) (*DriftResult, error) {
	eng := sim.NewEngine()
	pool := cluster.NewPool(w.subPlan.NodesUsed() + 64)
	m := master.New(eng, pool, master.Options{Immediate: true, ParallelLoad: true, MonitorWindow: 24 * time.Hour})
	dep, err := m.Deploy(w.subPlan, Tenants(w.subLogs))
	if err != nil {
		return nil, err
	}
	// The initial deployment is up before the window starts (Immediate), but
	// the control loop's migrations pay the Table 5.1 startup + reload costs:
	// new groups provision through a second, costed master on the same
	// engine and pool.
	mig := master.New(eng, pool, master.Options{ParallelLoad: true, MonitorWindow: 24 * time.Hour})
	ocfg := online.DefaultConfig(w.acfg, env.Horizon())
	ocfg.Interval = cfg.TickEvery
	ctl, err := online.New(eng, dep, mig, w.subPlan, w.subLogs, ocfg)
	if err != nil {
		return nil, err
	}
	ctl.Start()

	res := &DriftResult{Victim: w.victim}
	var extra extraTraffic
	for i, jl := range w.joiners {
		jl := jl
		at := cfg.JoinStart + sim.Time(i)*2*sim.Hour
		eng.Schedule(at, func(sim.Time) { ctl.Join(jl) })
		// The joiner's own traffic begins at registration; submissions before
		// its placement cuts over are rejected, not dropped.
		extra.schedule(eng, dep, env, jl, at, cfg.Window)
		res.Joined = append(res.Joined, jl.Tenant.ID)
	}
	for i, id := range w.leavers {
		id := id
		at := cfg.LeaveStart + sim.Time(i)*3*sim.Hour
		eng.Schedule(at, func(sim.Time) { ctl.Leave(id) })
		// The leaver submits normally until departure.
		extra.schedule(eng, dep, env, w.logByID[id], 0, at)
		res.Left = append(res.Left, id)
	}
	// Replay the steady population (leavers and joiners are scheduled above).
	leaving := map[string]bool{}
	for _, id := range w.leavers {
		leaving[id] = true
	}
	var replayLogs []*workload.TenantLog
	for _, tl := range w.subLogs {
		if !leaving[tl.Tenant.ID] {
			replayLogs = append(replayLogs, tl)
		}
	}
	rep, err := replay.Run(dep, env.Cat, replayLogs, replay.Options{
		From:        0,
		To:          cfg.Window,
		SampleEvery: time.Hour,
		TakeOver: &replay.TakeOver{
			Tenant:   w.victim,
			Start:    cfg.TakeOverStart,
			Interval: 3 * time.Second,
			ClassID:  "TPCH-Q1",
		},
	})
	if err != nil {
		return nil, err
	}
	records := append(rep.Records, ctl.DrainedRecords()...)
	res.Stats = ctl.Status()
	res.Migrations = ctl.Migrations()
	res.Report = ctl.LastReport()
	res.Submitted = rep.Submitted + extra.submitted
	res.SubmitErrors = rep.SubmitErrors + extra.errors
	res.Completed = len(records)
	res.OnlineAttainment = attainment(records)
	res.Hash = telemetryHash(dep)
	res.Groups = res.Stats.Groups
	return res, nil
}

// runDriftOracle executes the offline oracle: a fresh advisor re-solve that
// already knows the final population and the victim's shifted activity, then
// the same window replayed against that clairvoyant deployment. Departed
// tenants are gone from the start (the oracle run carries slightly less
// load, which only flatters the oracle — the conservative direction for the
// online-within-1% comparison).
func runDriftOracle(env *Env, cfg DriftConfig, w *driftWorld) (float64, error) {
	adv, err := advisor.New(w.acfg)
	if err != nil {
		return 0, err
	}
	leaving := map[string]bool{}
	for _, id := range w.leavers {
		leaving[id] = true
	}
	var planLogs, replayLogs []*workload.TenantLog
	for _, tl := range w.subLogs {
		if leaving[tl.Tenant.ID] {
			continue
		}
		replayLogs = append(replayLogs, tl)
		if tl.Tenant.ID == w.victim {
			// The oracle plans on the victim's true (shifted) activity; the
			// replayed submissions stay identical to the online run.
			shifted := &workload.TenantLog{
				Tenant:   tl.Tenant,
				Sessions: tl.Sessions,
				Activity: append(append(epoch.Activity{}, tl.Activity...),
					epoch.Interval{Start: cfg.TakeOverStart, End: cfg.Window}),
			}
			planLogs = append(planLogs, shifted)
			continue
		}
		planLogs = append(planLogs, tl)
	}
	planLogs = append(planLogs, w.joiners...)

	plan, err := adv.Plan(planLogs, env.Horizon())
	if err != nil {
		return 0, err
	}
	// Tenants the planner excluded (over-active or bursty) still must be
	// served: give each a dedicated single-tenant group, as the online
	// loop's fallback does.
	tenants := Tenants(planLogs)
	for i, e := range plan.Excluded {
		tn := tenants[e.TenantID]
		design, err := tdd.NewClusterDesign(w.acfg.R, tn.Nodes, tn.Nodes)
		if err != nil {
			return 0, err
		}
		plan.Groups = append(plan.Groups, advisor.PlannedGroup{
			ID:        fmt.Sprintf("TG-X%04d", i),
			TenantIDs: []string{e.TenantID},
			Design:    design,
			TTP:       1,
		})
	}

	eng := sim.NewEngine()
	nodes := 0
	for _, pg := range plan.Groups {
		nodes += pg.Design.TotalNodes()
	}
	pool := cluster.NewPool(nodes + 64)
	m := master.New(eng, pool, master.Options{Immediate: true, ParallelLoad: true, MonitorWindow: 24 * time.Hour})
	dep, err := m.Deploy(plan, tenants)
	if err != nil {
		return 0, err
	}
	var extra extraTraffic
	for i, jl := range w.joiners {
		at := cfg.JoinStart + sim.Time(i)*2*sim.Hour
		extra.schedule(eng, dep, env, jl, at, cfg.Window)
	}
	rep, err := replay.Run(dep, env.Cat, replayLogs, replay.Options{
		From:        0,
		To:          cfg.Window,
		SampleEvery: time.Hour,
		TakeOver: &replay.TakeOver{
			Tenant:   w.victim,
			Start:    cfg.TakeOverStart,
			Interval: 3 * time.Second,
			ClassID:  "TPCH-Q1",
		},
	})
	if err != nil {
		return 0, err
	}
	return attainment(rep.Records), nil
}

func attainment(recs []monitor.QueryRecord) float64 {
	if len(recs) == 0 {
		return 1
	}
	met := 0
	for _, r := range recs {
		if r.SLAMet() {
			met++
		}
	}
	return float64(met) / float64(len(recs))
}

// DriftOutcome runs the full drift scenario: online run plus oracle
// re-solve.
func DriftOutcome(env *Env, cfg DriftConfig) (*DriftResult, error) {
	w, err := buildDriftWorld(env, cfg)
	if err != nil {
		return nil, err
	}
	res, err := runDriftOnline(env, cfg, w)
	if err != nil {
		return nil, err
	}
	res.OracleAttainment, err = runDriftOracle(env, cfg, w)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Drift reproduces the continuous-operation scenario the paper's periodic
// re-consolidation (§3c, §5.1) only approximates: tenants join and leave
// mid-flight, one tenant's activity shifts (§7.5 take-over), and the online
// control loop keeps the deployment consolidated through live migrations —
// no Install swap, no dropped queries. The outcome compares the online run's
// SLA attainment with an offline oracle that re-solves the final population
// with perfect foresight.
func Drift(env *Env) ([]*Table, error) {
	cfg := DefaultDriftConfig()
	res, err := DriftOutcome(env, cfg)
	if err != nil {
		return nil, err
	}
	loop := &Table{
		Title:   fmt.Sprintf("Drift — online control loop (victim %s, %d joins, %d leaves, window %v)", res.Victim, len(res.Joined), len(res.Left), cfg.Window),
		Columns: []string{"metric", "value"},
	}
	loop.AddRow("control ticks", res.Stats.Ticks)
	loop.AddRow("delta epochs ingested", res.Stats.DeltaEpochs)
	loop.AddRow("drifted tenants detected", res.Stats.Drifts)
	loop.AddRow("joins / leaves processed", fmt.Sprintf("%d / %d", res.Stats.Joins, res.Stats.Leaves))
	loop.AddRow("local repair moves", res.Stats.LocalMoves)
	loop.AddRow("scoped re-consolidations", res.Stats.Fallbacks)
	loop.AddRow("migrations started / cut over", fmt.Sprintf("%d / %d", res.Stats.MigrationsStarted, res.Stats.MigrationsCutOver))
	loop.AddRow("groups retired", res.Stats.GroupsRetired)
	loop.AddRow("final groups / tenants", fmt.Sprintf("%d / %d", res.Stats.Groups, res.Stats.Tenants))

	migs := &Table{
		Title:   "Drift — live migrations (provision in background, drain, atomic cutover)",
		Columns: []string{"id", "kind", "tenants", "from", "to", "started", "ready", "cut over"},
	}
	for _, mg := range res.Migrations {
		from := mg.From
		if from == "" {
			from = "—"
		}
		migs.AddRow(mg.ID, mg.Kind, fmt.Sprint(mg.Tenants), from, mg.To,
			mg.Started.String(), mg.ReadyAt.String(), mg.CutOver)
	}

	outcome := &Table{
		Title:   "Drift — outcome (online vs offline oracle re-solve)",
		Columns: []string{"metric", "value"},
	}
	outcome.AddRow("queries submitted", res.Submitted)
	outcome.AddRow("submit rejects (pre-placement / post-departure)", res.SubmitErrors)
	outcome.AddRow("queries completed", res.Completed)
	noDrop := "PASS"
	if !res.NoDrop() {
		noDrop = fmt.Sprintf("FAIL: %d accepted, %d completed", res.Submitted-res.SubmitErrors, res.Completed)
	}
	outcome.AddRow("no dropped queries", noDrop)
	outcome.AddRow("online SLA attainment", pct(res.OnlineAttainment))
	outcome.AddRow("oracle SLA attainment", pct(res.OracleAttainment))
	verdict := "PASS"
	if res.AttainmentDelta() > 0.01 {
		verdict = fmt.Sprintf("FAIL: online %.2f%% behind the oracle", 100*res.AttainmentDelta())
	}
	outcome.AddRow("online within 1% of oracle", verdict)
	outcome.AddRow("telemetry hash", res.Hash[:16])
	return []*Table{loop, migs, outcome}, nil
}
