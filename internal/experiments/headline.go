package experiments

import (
	"fmt"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/replay"
	"repro/internal/sim"
)

// HeadlineResult is the paper's banner claim (§1, abstract): under default
// parameters, Thrifty serves all tenants with the 99.9% SLA guarantee and
// replication factor 3 using only ~18.7% of the nodes they requested —
// plus a run-time validation that a sample of the deployment actually
// honours the SLA when its logs are replayed.
type HeadlineResult struct {
	Summary    *Table
	Validation *Table
}

// Tables renders the result.
func (r *HeadlineResult) Tables() []*Table { return []*Table{r.Summary, r.Validation} }

// Headline plans the default population and validates the plan at run time.
func Headline(env *Env) (*HeadlineResult, error) {
	acfg := advisor.DefaultConfig()
	acfg.SolverWorkers = SolverWorkers
	plan, logs, err := planDefault(env, acfg)
	if err != nil {
		return nil, err
	}

	res := &HeadlineResult{}
	res.Summary = &Table{
		Title:   fmt.Sprintf("Headline — %d tenants, R=%d, P=%.1f%%", len(logs), plan.Config.R, 100*plan.Config.P),
		Columns: []string{"metric", "value", "paper"},
	}
	res.Summary.AddRow("requested nodes", plan.RequestedNodes, "—")
	res.Summary.AddRow("nodes used", plan.NodesUsed(), "—")
	res.Summary.AddRow("nodes used / requested", pct(1-plan.Effectiveness()), "18.7%")
	res.Summary.AddRow("consolidation effectiveness", pct(plan.Effectiveness()), "81.3%")
	res.Summary.AddRow("tenant-groups", len(plan.Groups), "—")
	res.Summary.AddRow("mean group size", fmt.Sprintf("%.1f", plan.MeanGroupSize()), "≈16 (derived)")
	res.Summary.AddRow("excluded tenants", len(plan.Excluded), "—")
	res.Summary.AddRow("planning time", plan.SolveTime.Sub(0).String(), "≈30min (Python)")

	// Run-time validation: replay the busiest groups for one day and check
	// SLA attainment against the guarantee.
	res.Validation = &Table{
		Title:   "Headline validation — one-day replay of the largest tenant-groups",
		Columns: []string{"group", "tenants", "A×n", "queries", "SLA attainment", "min RT-TTP", "overflow queries"},
	}
	for _, gi := range largestGroups(plan, env.Scale.ReplayGroups) {
		subPlan, subLogs := restrictPlan(plan, logs, []int{gi})
		pg := subPlan.Groups[0]
		eng := sim.NewEngine()
		pool := cluster.NewPool(subPlan.NodesUsed() + 8)
		m := master.New(eng, pool, master.Options{Immediate: true})
		dep, err := m.Deploy(subPlan, Tenants(subLogs))
		if err != nil {
			return nil, err
		}
		// Replay the first two weekdays (day 0–2) of the logs.
		rep, err := replay.Run(dep, env.Cat, subLogs, replay.Options{
			From:        0,
			To:          2 * sim.Day,
			SampleEvery: time.Hour,
		})
		if err != nil {
			return nil, err
		}
		g := dep.Groups()[0]
		res.Validation.AddRow(pg.ID, len(pg.TenantIDs),
			fmt.Sprintf("%d×%d", pg.Design.A, pg.Design.N1),
			len(rep.Records), pct(rep.SLAAttainment()),
			fmt.Sprintf("%.4f", rep.MinRTTTP(pg.ID)),
			g.Router.Overflowed())
	}
	return res, nil
}
