package experiments

import (
	"fmt"
	"sort"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/queries"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/workload"
)

// stormSLASlack scales each replayed query's logged duration into its SLO
// target in the storm scenarios. The logged duration is the zero-headroom
// pre-consolidation latency, and the advisor's P guarantee already prices
// in transient <=(1-P) overflow windows — a slack of 2.5 forgives
// worst-case full-duration sharing with a single co-tenant (processor
// sharing doubles latency) and flags only the sustained pile-ups a storm
// causes.
const stormSLASlack = 2.5

// faultScenario declares what every arm of a fault experiment shares: the
// deployed sub-plan and its tenants' logs, how the node pool is sized, the
// replay window, and how an arm's traffic and faults are set up.
type faultScenario struct {
	plan *advisor.Plan
	logs []*workload.TenantLog
	// pool sizes the node pool for the plan's footprint.
	pool func(used int) *cluster.Pool
	// replay is the window, SLO slack and drain every arm replays.
	replay replay.Options
	// setup fills an arm's faults into opts (Failures, Injectors, Admit) —
	// an empty schedule when the arm is not faulted — and returns the logs
	// it replays.
	setup func(dep *master.Deployment, opts *replay.Options, faulted bool) ([]*workload.TenantLog, error)
}

// faultArm is one posture a scenario runs under: no-fault, bare or
// protected.
type faultArm struct {
	name    string
	posture master.Options
	faulted bool
}

// faultRun is one arm's finished replay.
type faultRun struct {
	name string
	dep  *master.Deployment
	rep  *replay.Report
	out  replay.Outcome
}

// runArms runs the scenario once per arm, in order: a fresh deployment
// under the arm's posture, the arm's traffic and faults, the replay, and
// its outcome.
func (sc *faultScenario) runArms(cat *queries.Catalog, arms ...faultArm) ([]*faultRun, error) {
	runs := make([]*faultRun, 0, len(arms))
	for _, a := range arms {
		eng := sim.NewEngine()
		m := master.New(eng, sc.pool(sc.plan.NodesUsed()), a.posture)
		dep, err := m.Deploy(sc.plan, Tenants(sc.logs))
		if err != nil {
			return nil, err
		}
		opts := sc.replay
		logs, err := sc.setup(dep, &opts, a.faulted)
		if err != nil {
			return nil, err
		}
		rep, err := replay.Run(dep, cat, logs, opts)
		if err != nil {
			return nil, err
		}
		runs = append(runs, &faultRun{name: a.name, dep: dep, rep: rep, out: replay.Inspect(dep, rep)})
	}
	return runs, nil
}

// verifyArms applies the shared end-state bar to every run, naming the
// first arm that fails it.
func verifyArms(runs []*faultRun) error {
	for _, r := range runs {
		if err := r.out.Verify(); err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
	}
	return nil
}

// armRow adds one metric row to a per-arm table: a cell per run, in arm
// order.
func armRow(t *Table, runs []*faultRun, metric string, cell func(i int, r *faultRun) any) {
	cells := []any{metric}
	for i, r := range runs {
		cells = append(cells, cell(i, r))
	}
	t.AddRow(cells...)
}

// planDefault plans the environment's default logs under acfg.
func planDefault(env *Env, acfg advisor.Config) (*advisor.Plan, []*workload.TenantLog, error) {
	logs, err := env.DefaultLogs()
	if err != nil {
		return nil, nil, err
	}
	adv, err := advisor.New(acfg)
	if err != nil {
		return nil, nil, err
	}
	plan, err := adv.Plan(logs, env.Horizon())
	if err != nil {
		return nil, nil, err
	}
	return plan, logs, nil
}

// restrictPlan extracts the picked groups of a plan (in pick order) as a
// standalone sub-plan plus the logs of their members.
func restrictPlan(plan *advisor.Plan, logs []*workload.TenantLog, picks []int) (*advisor.Plan, []*workload.TenantLog) {
	sub := &advisor.Plan{Config: plan.Config}
	members := map[string]bool{}
	for _, gi := range picks {
		pg := plan.Groups[gi]
		sub.Groups = append(sub.Groups, pg)
		for _, id := range pg.TenantIDs {
			members[id] = true
		}
	}
	var subLogs []*workload.TenantLog
	for _, tl := range logs {
		if members[tl.Tenant.ID] {
			subLogs = append(subLogs, tl)
		}
	}
	return sub, subLogs
}

// largestGroups returns the indices of the plan's n most-populated groups,
// most populated first.
func largestGroups(plan *advisor.Plan, n int) []int {
	picks := make([]int, len(plan.Groups))
	for i := range picks {
		picks[i] = i
	}
	sort.Slice(picks, func(i, j int) bool {
		return len(plan.Groups[picks[i]].TenantIDs) > len(plan.Groups[picks[j]].TenantIDs)
	})
	return picks[:min(n, len(picks))]
}

// recoveryBoundGroups returns the indices of the n groups with the smallest
// per-node data shard (ties: more members, then plan order). A domain
// outage is a recovery experiment: the per-node shard fixes the Table 5.1
// reload that bounds how long a casualty stays degraded, and the whale
// groups consolidation produces (multi-TB shards packed onto two-node
// instances) would spend days reloading — far past any storm horizon —
// drowning the placement signal in reload tail no matter how the arms place
// or triage. Bounding the shard keeps repair on the storm's timescale,
// matching the paper's own ~hundred-GB-per-node Table 5.1 loads.
func recoveryBoundGroups(plan *advisor.Plan, logs []*workload.TenantLog, n int) []int {
	data := map[string]float64{}
	for _, tl := range logs {
		data[tl.Tenant.ID] = tl.Tenant.DataGB
	}
	share := make([]float64, len(plan.Groups))
	picks := make([]int, len(plan.Groups))
	for i := range plan.Groups {
		pg := &plan.Groups[i]
		for _, id := range pg.TenantIDs {
			share[i] += data[id]
		}
		share[i] /= float64(pg.Design.N1)
		picks[i] = i
	}
	sort.Slice(picks, func(i, j int) bool {
		a, b := picks[i], picks[j]
		if share[a] != share[b] {
			return share[a] < share[b]
		}
		if na, nb := len(plan.Groups[a].TenantIDs), len(plan.Groups[b].TenantIDs); na != nb {
			return na > nb
		}
		return a < b
	})
	return picks[:min(n, len(picks))]
}
