package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	goruntime "runtime"
	"time"

	thrifty "repro"
	"repro/internal/sim"
)

// spec is one workload: a tenant population, how it is planned and
// deployed, and the window of its logged history that is replayed.
type spec struct {
	name      string
	why       string
	tenants   int
	sharing   bool     // plan with PlanConfig.Sharing and deploy with Sharing
	governed  bool     // the replayed deployment arms recovery and admission
	sharded   bool     // the replayed deployment has thriftyd's sharded layout
	replayLen sim.Time // length of a replayed window (see typicalWindow)
	replayed  int      // populations whose typical window is replayed
	planned   int      // populations planned, the replayed ones included
}

const (
	historyDays      = 7
	sessionsPerClass = 10
)

var specs = []spec{
	{
		name:      "replay-week",
		why:       "Paper's validation path: default plan, bare shared-domain deploy, the whole week replayed; replay, router, mppdb, sim and monitor do the work.",
		tenants:   400,
		replayLen: historyDays * sim.Day,
		replayed:  2,
		planned:   12,
	},
	{
		name:      "plan-2k",
		why:       "Time to a deployable plan at scale: 2000 tenants, so epoch, grouping and advisor dominate; a 12-hour replay only checks that the plan keeps its SLA.",
		tenants:   2000,
		replayLen: 12 * sim.Hour,
		replayed:  3,
		planned:   3,
	},
	{
		name:      "governed-2day",
		why:       "thriftyd -sharing arming: two solves, shared scans in mppdb, recovery and admission armed; the brownout tick rescans monitor records every 30 s.",
		tenants:   400,
		sharing:   true,
		governed:  true,
		replayLen: sim.Day,
		replayed:  3,
		planned:   8,
	},
	{
		name:      "serve-http",
		why:       "thriftyd defaults behind a loopback HTTP server: codec, coalescer, admission and batched submit carry every query; a 1-day replay drives the sharded path.",
		tenants:   200,
		sharded:   true,
		replayLen: sim.Day,
		replayed:  4,
		planned:   16,
	},
}

func lookupSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func (s spec) workloadConfig(seed int64) thrifty.WorkloadConfig {
	return thrifty.WorkloadConfig{Tenants: s.tenants, Days: historyDays, SessionsPerClass: sessionsPerClass, Seed: seed}
}

func (s spec) planConfig() thrifty.PlanConfig {
	c := thrifty.DefaultPlanConfig()
	c.Sharing = s.sharing
	return c
}

// replayDeploy is how the replayed deployment is brought up. A sharded
// workload replays on thriftyd's sharded layout unarmed: System.Replay
// bypasses admission, and recovery's heartbeat scans the whole node pool
// at a fixed cost per virtual hour, which would make replay_qps track the
// seed's queries per day rather than the code. governed-2day replays with
// both armed; the front door arms both on every workload.
func (s spec) replayDeploy() thrifty.DeployOptions {
	if s.sharded {
		o := serveDeploy(s.sharing)
		o.Recovery, o.Admission = nil, nil
		return o
	}
	o := thrifty.DeployOptions{Immediate: true, Sharing: s.sharing}
	if s.governed {
		rc := thrifty.DefaultRecoveryConfig()
		ac := thrifty.DefaultAdmissionConfig()
		o.Recovery, o.Admission = &rc, &ac
	}
	return o
}

// serveDeploy is thriftyd's default deployment: sharded, 64 spare nodes,
// recovery and admission armed (and shared-work execution under -sharing).
func serveDeploy(sharing bool) thrifty.DeployOptions {
	rc := thrifty.DefaultRecoveryConfig()
	ac := thrifty.DefaultAdmissionConfig()
	return thrifty.DeployOptions{
		Immediate:    true,
		ParallelLoad: true,
		SpareNodes:   64,
		Sharded:      true,
		Recovery:     &rc,
		Admission:    &ac,
		Sharing:      sharing,
	}
}

// iteration is one plan → deploy → replay pass.
type iteration struct {
	PlanS      float64 `json:"plan_s"`
	ReplayCPU  float64 `json:"replay_cpu_s"`
	DeployS    float64 `json:"deploy_s"`
	ReplayS    float64 `json:"replay_s"`
	HeapMB     float64 `json:"heap_peak_mb"`
	Nodes      int     `json:"nodes_used"`
	Groups     int     `json:"groups"`
	Attainment float64 `json:"sla_attainment"`
	Digest     string  `json:"finish_digest"`
	Window     string  `json:"window"`
	Records    int     `json:"records"`
	Met        int     `json:"sla_met"`
	Submitted  int     `json:"submitted"`
	SubmitErrs int     `json:"submit_errors"`

	plan      *thrifty.Plan
	sys       *thrifty.System
	rep       *thrifty.ReplayReport
	cpuShares map[string]float64
}

// window is a replayed span [from, to) of the history.
type window struct{ from, to sim.Time }

func (w window) String() string {
	return fmt.Sprintf("day %.2f+%.2f", w.from.Seconds()/sim.Day.Seconds(), (w.to-w.from).Seconds()/sim.Day.Seconds())
}

// typicalWindow returns the span of the given length, starting on a
// multiple of an eighth of the length, whose logged query count is closest
// to the length's share of the whole history (the earliest such span).
// Logged volume swings about twofold from day to day (a zone's holiday, a
// quiet Monday), so the first days of one history are not comparable with
// another's; spans of typical volume are.
func typicalWindow(w *thrifty.Workload, length sim.Time) window {
	if length >= w.Horizon {
		return window{0, w.Horizon}
	}
	const bin = 15 * sim.Minute
	perBin := make([]int, int((w.Horizon+bin-1)/bin))
	total := 0
	for _, tl := range w.Logs {
		for _, ref := range tl.Sessions {
			for _, ev := range ref.Log.Events {
				if at := ref.Start + ev.Offset; at < w.Horizon {
					perBin[at/bin]++
					total++
				}
			}
		}
	}
	target := float64(total) * float64(length) / float64(w.Horizon)
	n, step := int(length/bin), max(int(length/bin)/8, 1)
	best, bestDiff := 0, math.Inf(1)
	for first := 0; first+n <= len(perBin); first += step {
		c := 0
		for _, x := range perBin[first : first+n] {
			c += x
		}
		if d := math.Abs(float64(c) - target); d < bestDiff {
			best, bestDiff = first, d
		}
	}
	from := sim.Time(best) * bin
	return window{from, from + length}
}

// iterate plans, deploys and replays w once, timing each public call; each
// call starts on a collected heap, so it does not pay for the garbage of
// the one before. A non-nil prof covers plan, deploy and replay: it is
// stopped as soon as the replay returns and its shares are kept in the
// iteration.
func iterate(s spec, w *thrifty.Workload, win window, tr *tracer, heap *heapSampler, prof *cpuProfile) (iteration, error) {
	heap.reset() // collects
	var it iteration
	end := tr.begin("advisor.PlanDeployment")
	plan, err := thrifty.PlanDeployment(w, s.planConfig())
	it.PlanS = end().Seconds()
	if err != nil {
		return it, fmt.Errorf("plan: %w", err)
	}
	goruntime.GC()
	end = tr.begin("master.Deploy")
	sys, err := thrifty.Deploy(w, plan, s.replayDeploy())
	it.DeployS = end().Seconds()
	if err != nil {
		return it, fmt.Errorf("deploy: %w", err)
	}
	goruntime.GC()
	end = tr.begin("replay.Replay")
	c0 := cpuNow()
	rep, err := sys.Replay(thrifty.ReplayOptions{From: win.from, To: win.to})
	it.ReplayCPU = (cpuNow() - c0).Seconds()
	it.ReplayS = end().Seconds()
	if err != nil {
		return it, fmt.Errorf("replay: %w", err)
	}
	if prof != nil {
		if it.cpuShares, err = prof.stop(); err != nil {
			return it, err
		}
	}
	it.HeapMB = heap.peakMB() // sys and rep are still held
	it.plan, it.sys, it.rep = plan, sys, rep
	it.Nodes = plan.NodesUsed()
	it.Groups = len(plan.Groups)
	it.Attainment = rep.SLAAttainment()
	it.Digest = finishDigest(rep)
	it.Window = win.String()
	it.Records = len(rep.Records)
	for _, r := range rep.Records {
		if r.SLAMet() {
			it.Met++
		}
	}
	it.Submitted = rep.Submitted
	it.SubmitErrs = rep.SubmitErrors
	return it, nil
}

// finishDigest hashes every completed query's tenant, class, instance,
// submit and finish time, in report order.
func finishDigest(rep *thrifty.ReplayReport) string {
	h := fnv.New64a()
	var buf []byte
	for _, r := range rep.Records {
		buf = append(buf[:0], r.Tenant...)
		buf = append(buf, 0)
		buf = append(buf, r.Class.ID...)
		buf = append(buf, 0)
		buf = append(buf, r.MPPDB...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Submit))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Finish))
		h.Write(buf)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// setupOnce times what a provider pays before the first query: generating
// the workload, deploying the plan, and starting the front door (listening
// and answering its first health check).
func setupOnce(s spec, seed int64, plan *thrifty.Plan) (float64, error) {
	goruntime.GC()
	start := time.Now()
	w, err := thrifty.GenerateWorkload(s.workloadConfig(seed))
	if err != nil {
		return 0, err
	}
	sys, err := thrifty.Deploy(w, plan, s.replayDeploy())
	if err != nil {
		return 0, err
	}
	h, err := sys.Handler(thrifty.ServeOptions{})
	if err != nil {
		return 0, err
	}
	fd, err := startFrontDoor(h)
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	if err := fd.close(); err != nil {
		return 0, err
	}
	return d.Seconds(), nil
}

// checks collects the output checks of a run; any failure fails the run.
type checks struct {
	Passed int      `json:"passed"`
	Failed []string `json:"failed"`
}

func (c *checks) expect(ok bool, format string, args ...any) {
	if ok {
		c.Passed++
		return
	}
	c.Failed = append(c.Failed, fmt.Sprintf(format, args...))
}

// loggedQueries counts the history's queries of deployed tenants in win,
// straight from the session logs.
func loggedQueries(w *thrifty.Workload, plan *thrifty.Plan, win window) int {
	n := 0
	for _, tl := range w.Logs {
		if _, ok := plan.Group(tl.Tenant.ID); !ok {
			continue
		}
		for _, ref := range tl.Sessions {
			for _, ev := range ref.Log.Events {
				if at := ref.Start + ev.Offset; at >= win.from && at < win.to {
					n++
				}
			}
		}
	}
	return n
}

// checkPlan verifies that every tenant the plan did not exclude sits in
// exactly one group, that each group's design fits its members, and that
// the plan's node count is the sum of its designs and, when sys is not
// nil, what its deployment holds active.
func checkPlan(c *checks, w *thrifty.Workload, plan *thrifty.Plan, sys *thrifty.System) {
	seen := make(map[string]int)
	nodes := 0
	tenants := w.Tenants()
	for _, g := range plan.Groups {
		d := g.Design
		nodes += d.U + (d.A-1)*d.N1
		c.expect(d.A == plan.Config.R, "group %s has %d MPPDBs, want R=%d", g.ID, d.A, plan.Config.R)
		for _, id := range g.TenantIDs {
			seen[id]++
			if tn, ok := tenants[id]; ok && tn.Nodes > d.N1 {
				c.expect(false, "tenant %s requests %d nodes, group %s gives %d", id, tn.Nodes, g.ID, d.N1)
			}
		}
	}
	excluded := make(map[string]bool, len(plan.Excluded))
	for _, x := range plan.Excluded {
		excluded[x.TenantID] = true
	}
	bad := 0
	for id := range tenants {
		want := 1
		if excluded[id] {
			want = 0
		}
		if seen[id] != want {
			bad++
		}
	}
	c.expect(bad == 0 && len(seen) <= len(tenants), "%d tenants are not in exactly one group (or in one while excluded)", bad)
	c.expect(plan.NodesUsed() == nodes, "plan NodesUsed %d != sum of group designs %d", plan.NodesUsed(), nodes)
	if sys != nil {
		c.expect(sys.Deployment.NodesUsed() == nodes, "deployment holds %d active nodes, plan designs %d", sys.Deployment.NodesUsed(), nodes)
	}
}

// checkReplay verifies the replay's query accounting against the logs.
func checkReplay(c *checks, it iteration, logged int) {
	c.expect(it.Submitted == it.Records+it.SubmitErrs,
		"replay submitted %d != %d records + %d submit errors", it.Submitted, it.Records, it.SubmitErrs)
	c.expect(it.Submitted == logged, "replay submitted %d queries, the logs hold %d in the window", it.Submitted, logged)
	c.expect(!math.IsNaN(it.Attainment) && it.Attainment > 0, "replay SLA attainment %v", it.Attainment)
}

// checkSame verifies that a same-seed repeat reproduced the first pass.
func checkSame(c *checks, first, again iteration) {
	c.expect(first.Nodes == again.Nodes, "same-seed repeat: nodes_used %d then %d", first.Nodes, again.Nodes)
	c.expect(first.Attainment == again.Attainment, "same-seed repeat: sla_attainment %v then %v", first.Attainment, again.Attainment)
	c.expect(first.Digest == again.Digest, "same-seed repeat: finish-time digest %s then %s", first.Digest, again.Digest)
}
