package main

import (
	"fmt"
	"math/rand"
	"time"

	thrifty "repro"
	"repro/internal/epoch"
	"repro/internal/grouping"
	"repro/internal/mppdb"
	"repro/internal/queries"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// buildWorkload makes the same workload thrifty.GenerateWorkload makes,
// calling its two steps directly so each is timed on its own.
func buildWorkload(s spec, seed int64, tr *tracer, layer map[string]float64) (*thrifty.Workload, error) {
	cfg := thrifty.DefaultWorkloadConfig(seed)
	wc := s.workloadConfig(seed)
	cat := queries.Default()
	end := tr.begin("workload.BuildLibrary")
	lib, err := workload.BuildLibrary(cat, cfg.Sizes, wc.SessionsPerClass, seed)
	layer["workload.library_s"] = end().Seconds()
	if err != nil {
		return nil, err
	}
	end = tr.begin("workload.ComposeVariant")
	logs, err := workload.ComposeVariant(lib, cat, wc.Tenants, cfg.Theta, cfg.Sizes, wc.Variant, wc.Days, seed+1)
	layer["workload.compose_s"] = end().Seconds()
	if err != nil {
		return nil, err
	}
	w := &thrifty.Workload{Catalog: cat, Library: lib, Logs: logs, Horizon: sim.Time(wc.Days) * sim.Day}
	n := 0
	for _, tl := range logs {
		for _, ref := range tl.Sessions {
			for _, ev := range ref.Log.Events {
				if ref.Start+ev.Offset < w.Horizon {
					n++
				}
			}
		}
	}
	layer["workload.queries"] = float64(n)
	return w, nil
}

// measurePlanLayers re-runs the advisor's two inner layers on the plan's
// own problem: epoch quantization of every consolidated tenant, and the
// grouping solver (twice under sharing, as the advisor does). The solver
// must land on the plan's node count.
func measurePlanLayers(s spec, w *thrifty.Workload, it iteration, tr *tracer, layer map[string]float64, c *checks) error {
	cfg := s.planConfig()
	excluded := make(map[string]bool, len(it.plan.Excluded))
	for _, x := range it.plan.Excluded {
		excluded[x.TenantID] = true
	}
	end := tr.begin("epoch.Quantize")
	grid, err := epoch.NewGrid(cfg.Epoch, w.Horizon)
	if err != nil {
		end()
		return err
	}
	prob := &grouping.Problem{D: grid.D, R: cfg.R, P: cfg.P}
	spans := 0
	for _, tl := range w.Logs {
		if excluded[tl.Tenant.ID] {
			continue
		}
		sp := grid.Quantize(tl.Activity)
		spans += len(sp)
		prob.Items = append(prob.Items, &grouping.Item{ID: tl.Tenant.ID, Nodes: tl.Tenant.Nodes, Spans: sp})
	}
	quantizeS := end().Seconds()
	layer["epoch.quantize_s"] = quantizeS
	layer["epoch.spans"] = float64(spans)

	problems := []*grouping.Problem{prob}
	if sw := cfg.ShareWeights(); len(sw) > 0 {
		problems = append(problems, &grouping.Problem{Items: prob.Items, D: prob.D, R: prob.R, P: prob.P, Share: sw})
	}
	solveS := 0.0
	best := -1
	groups := 0
	for _, p := range problems {
		end := tr.begin("grouping.TwoStep")
		sol, err := grouping.Solver{Workers: cfg.SolverWorkers}.TwoStep(p)
		solveS += end().Seconds()
		if err != nil {
			return err
		}
		if n := sol.NodesUsed(p.R); best < 0 || n < best {
			best, groups = n, len(sol.Groups)
		}
	}
	layer["grouping.solve_s"] = solveS
	layer["grouping.solves"] = float64(len(problems))
	layer["grouping.groups"] = float64(groups)
	layer["advisor.self_s"] = it.PlanS - quantizeS - solveS
	c.expect(best == it.Nodes && groups == it.Groups,
		"re-solving the plan's problem gave %d nodes in %d groups, the plan has %d in %d", best, groups, it.Nodes, it.Groups)
	return nil
}

// readReplayCounters reads the replayed deployment's exported layer
// counters and times the monitor's whole-window reads at the end-of-run
// record count.
func readReplayCounters(it iteration, tr *tracer, layer map[string]float64) {
	dep := it.sys.Deployment
	var steps uint64
	for _, d := range dep.Plane().Domains() {
		d.Do(func(e *sim.Engine) { steps += e.Steps() })
	}
	layer["sim.steps"] = float64(steps)
	layer["sim.ns_per_step"] = it.ReplayS * 1e9 / float64(steps)

	var routed, overflowed int64
	var batches, joins uint64
	records := 0
	var attainNs, rtttpNs time.Duration
	calls := 0
	end := tr.begin("monitor.reads")
	for _, g := range dep.Groups() {
		routed += g.Router.Routed()
		overflowed += g.Router.Overflowed()
		for _, inst := range g.Instances {
			b, j := inst.SharedStats()
			batches += b
			joins += j
		}
		g.Domain().Do(func(*sim.Engine) {
			records += g.Monitor.RecordCount()
			for i := 0; i < 5; i++ {
				t0 := time.Now()
				_ = g.Monitor.SLAAttainment()
				t1 := time.Now()
				_ = g.Monitor.RTTTP()
				attainNs += t1.Sub(t0)
				rtttpNs += time.Since(t1)
				calls++
			}
		})
	}
	end()
	layer["router.routed"] = float64(routed)
	layer["router.overflowed"] = float64(overflowed)
	layer["mppdb.shared_batches"] = float64(batches)
	layer["mppdb.shared_joins"] = float64(joins)
	layer["monitor.records"] = float64(records)
	layer["monitor.attainment_call_us"] = float64(attainNs.Nanoseconds()) / 1e3 / float64(calls)
	layer["monitor.rtttp_call_us"] = float64(rtttpNs.Nanoseconds()) / 1e3 / float64(calls)
}

// probeEvent times Instance.SubmitTagged plus engine steps to completion
// on a lone 8-node instance that keeps k queries of random classes live:
// the processor-sharing cost of one query with k running beside it.
func probeEvent(cat *queries.Catalog, k, n int, seed int64) (float64, error) {
	eng := sim.NewEngine()
	inst := mppdb.New(eng, "probe", 8)
	inst.DeployTenant("probe", 100)
	ref, ok := inst.Interner().Lookup("probe")
	if !ok {
		return 0, fmt.Errorf("probe tenant not deployed")
	}
	done := 0
	inst.SetCompletionHandler(func(mppdb.Result, uint64) { done++ })
	classes := cat.Classes()
	rng := rand.New(rand.NewSource(seed))
	var tag uint64
	fill := func() error {
		for inst.Running() < k {
			tag++
			if _, err := inst.SubmitTagged(ref, classes[rng.Intn(len(classes))], tag); err != nil {
				return err
			}
		}
		return nil
	}
	if err := fill(); err != nil {
		return 0, err
	}
	start := time.Now()
	for done < n {
		if !eng.Step() {
			return 0, fmt.Errorf("probe engine ran dry after %d completions", done)
		}
		if err := fill(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}

// probeBatch times 64-query SubmitBatchAt calls against one group of a
// fresh bare deployment of the plan, advancing virtual time between
// batches so queries drain.
func probeBatch(w *thrifty.Workload, plan *thrifty.Plan, batches int) (float64, error) {
	sys, err := thrifty.Deploy(w, plan, thrifty.DeployOptions{Immediate: true})
	if err != nil {
		return 0, err
	}
	g := sys.Deployment.Groups()[0]
	class, ok := w.Catalog.ByID("TPCH-Q6")
	if !ok {
		return 0, fmt.Errorf("TPCH-Q6 missing from the catalog")
	}
	const batch = 64
	ids := g.Plan.TenantIDs
	items := make([]runtime.BatchItem, batch)
	for i := range items {
		id := ids[i%len(ids)]
		items[i] = runtime.BatchItem{Tenant: id, Class: class}
		if ref := g.Router.Ref(id); ref != tenant.NoRef {
			items[i].Ref, items[i].HasRef = ref, true
		}
	}
	outs := make([]runtime.BatchOutcome, batch)
	var pol runtime.RetryPolicy
	at := g.Domain().Now()
	start := time.Now()
	for i := 0; i < batches; i++ {
		at += 10 * sim.Minute
		g.SubmitBatchAt(at, items, outs, pol)
		for k := range outs {
			if outs[k].Err != nil {
				return 0, outs[k].Err
			}
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(batches*batch), nil
}

// measureProbes runs the fixed-size layer probes.
func measureProbes(w *thrifty.Workload, plan *thrifty.Plan, seed int64, tr *tracer, layer map[string]float64) error {
	for _, k := range []int{1, 8, 32} {
		end := tr.begin(fmt.Sprintf("mppdb.probe.k%d", k))
		ns, err := probeEvent(w.Catalog, k, 100000, seed)
		end()
		if err != nil {
			return err
		}
		layer[fmt.Sprintf("mppdb.event_ns.k%d", k)] = ns
	}
	end := tr.begin("runtime.SubmitBatchAt")
	ns, err := probeBatch(w, plan, 400)
	end()
	if err != nil {
		return err
	}
	layer["runtime.batch_ns_per_query"] = ns
	return nil
}

// frontDoorLayers reads the per-layer numbers of a timed ladder.
func frontDoorLayers(l *ladderResult, layer map[string]float64) {
	low, high := l.rate("x3600"), l.rate("x7200")
	layer["service.handler_us.p50"] = low.HandlerP50Us
	layer["service.handler_us.p99"] = low.HandlerP99Us
	layer["net.overhead_us"] = low.NetP50Us
	layer["telemetry.scrape_ms"] = high.ReadMs
	layer["loadgen.lag_p99_ms"] = high.LagP99Ms
	layer["frontdoor.submit_p50_ms.x3600"] = low.P50Ms
	layer["frontdoor.submit_p99_ms.x3600"] = low.P99Ms
	layer["frontdoor.submit_p50_ms.x7200"] = high.P50Ms
	layer["frontdoor.submit_p99_ms.x7200"] = high.P99Ms
	layer["frontdoor.max_rate_qps"] = l.MaxRateQPS
	var adm, thr, shed int64
	for _, s := range l.Rates {
		adm += s.Admitted
		thr += s.Throttled
		shed += s.Shed
	}
	layer["admission.admitted"] = float64(adm)
	layer["admission.throttled"] = float64(thr)
	layer["admission.shed"] = float64(shed)
}
