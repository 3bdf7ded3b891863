// Command perfbench is Thrifty's benchmark. It drives the system from
// outside, through the public API (GenerateWorkload, PlanDeployment,
// Deploy, System.Replay, System.Handler) and a few exported layer entry
// points, on one of four workloads, checks the outputs, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload replay-week --seed 1 --seconds 3 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes a separate
// traced run that reports the per-layer metrics. See perfbench/README.md.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"time"

	thrifty "repro"
)

// heldOutSeed is never used while tuning the benchmark or a change; a claim
// is rechecked on it (see README.md).
const heldOutSeed = 20130622

func main() { os.Exit(run()) }

func run() int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := flags.String("workload", "", "workload: replay-week, plan-2k, governed-2day or serve-http")
	seed := flags.Int64("seed", 1, "workload seed")
	seconds := flags.Float64("seconds", 3, "how long to repeat set-up after the plan → deploy → replay passes and the plans")
	trace := flags.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	if err := flags.Parse(os.Args[1:]); err != nil {
		return 2
	}
	s, ok := lookupSpec(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %v)\n", *name, *trace, *seconds)
		return 2
	}
	res, err := execute(s, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, filepath.Join(".bench_build", "results"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	res.print(os.Stdout)
	if len(res.Checks.Failed) > 0 {
		return 1
	}
	return 0
}

// metricDef is one reported metric.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"plan_s", "s", "lower"},
	{"replay_qps", "1/s", "higher"},
	{"nodes_used", "count", "lower"},
	{"sla_attainment", "fraction", "higher"},
	{"heap_peak_mb", "MiB", "lower"},
	{"submit_cpu_us.x7200", "us", "lower"},
}

func perLayer() []metricDef {
	defs := []metricDef{
		{"workload.library_s", "s", "lower"},
		{"workload.compose_s", "s", "lower"},
		{"workload.queries", "count", "higher"},
		{"epoch.quantize_s", "s", "lower"},
		{"epoch.spans", "count", "lower"},
		{"grouping.solve_s", "s", "lower"},
		{"grouping.solves", "count", "lower"},
		{"grouping.groups", "count", "lower"},
		{"advisor.self_s", "s", "lower"},
		{"master.deploy_s", "s", "lower"},
		{"sim.steps", "count", "lower"},
		{"sim.ns_per_step", "ns", "lower"},
		{"router.routed", "count", "higher"},
		{"router.overflowed", "count", "lower"},
		{"mppdb.event_ns.k1", "ns", "lower"},
		{"mppdb.event_ns.k8", "ns", "lower"},
		{"mppdb.event_ns.k32", "ns", "lower"},
		{"mppdb.shared_batches", "count", "higher"},
		{"mppdb.shared_joins", "count", "higher"},
		{"monitor.records", "count", "higher"},
		{"monitor.attainment_call_us", "us", "lower"},
		{"monitor.rtttp_call_us", "us", "lower"},
		{"admission.admitted", "count", "higher"},
		{"admission.throttled", "count", "lower"},
		{"admission.shed", "count", "lower"},
		{"runtime.batch_ns_per_query", "ns", "lower"},
		{"service.handler_us.p50", "us", "lower"},
		{"service.handler_us.p99", "us", "lower"},
		{"net.overhead_us", "us", "lower"},
		{"telemetry.scrape_ms", "ms", "lower"},
		{"loadgen.lag_p99_ms", "ms", "lower"},
		{"frontdoor.submit_p50_ms.x3600", "ms", "lower"},
		{"frontdoor.submit_p99_ms.x3600", "ms", "lower"},
		{"frontdoor.submit_p50_ms.x7200", "ms", "lower"},
		{"frontdoor.submit_p99_ms.x7200", "ms", "lower"},
		{"frontdoor.max_rate_qps", "1/s", "higher"},
		{"trace.overhead_pct", "%", "lower"},
	}
	for _, stage := range []string{"cpu_share", "serve_cpu_share"} {
		for _, p := range append(append([]string(nil), profiledPackages...), "other_internal", "go_runtime", "encoding_json", "net_http", "other") {
			defs = append(defs, metricDef{stage + "." + p, "%", "lower"})
		}
	}
	return defs
}

// metric is one reported value with the run's samples behind it.
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples summary `json:"samples"`
}

// provenance records where and on what a result was measured.
type provenance struct {
	Workload     string `json:"workload"`
	Why          string `json:"why"`
	Seed         int64  `json:"seed"`
	SeedRole     string `json:"seed_role"`
	Traced       bool   `json:"traced"`
	CPU          string `json:"cpu"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_sha256"`
	Started      string `json:"started"`
}

// inputs are the workload's input sizes.
type inputs struct {
	Tenants       int           `json:"tenants"`
	Days          int           `json:"history_days"`
	Populations   []int64       `json:"population_seeds"`
	Windows       []windowInput `json:"replay_windows"`
	ReplayQueries int           `json:"replay_queries"`
	ServedTenants int           `json:"front_door_tenants"`
}

// windowInput is one replayed population's window, its logged queries and
// the groups its plan deploys.
type windowInput struct {
	Seed    int64  `json:"seed"`
	Span    string `json:"span"`
	Queries int    `json:"queries"`
	Groups  int    `json:"groups"`
}

// result is everything one run measured.
type result struct {
	Provenance provenance     `json:"provenance"`
	Inputs     inputs         `json:"inputs"`
	Iterations []iteration    `json:"iterations"`
	PlanS      []float64      `json:"plan_s_samples"`
	Nodes      []int          `json:"nodes_used_samples"`
	SetupS     []float64      `json:"setup_s_samples"`
	FrontDoor  *ladderResult  `json:"front_door"`
	Checks     checks         `json:"checks"`
	Attempted  int            `json:"attempted"`
	Failed     int            `json:"failed"`
	Metrics    []metric       `json:"metrics"`
	Diagnostic map[string]any `json:"diagnostics"`
	Spans      []span         `json:"spans,omitempty"`
	WallS      float64        `json:"wall_s"`
}

// minSetups is the least number of set-ups an untraced run times.
const minSetups = 5

// populations returns the seeds of the run's tenant populations: the run's
// own, then ones derived from it.
func populations(s spec, seed int64) []int64 {
	seeds := []int64{seed}
	for k := int64(1); k < int64(s.planned); k++ {
		seeds = append(seeds, seed*1000+k)
	}
	return seeds
}

func execute(s spec, seed int64, budget time.Duration, traced bool, outDir string) (*result, error) {
	started := time.Now()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	res := &result{Provenance: readProvenance(s, seed, traced), Diagnostic: map[string]any{}}
	res.Inputs = inputs{Tenants: s.tenants, Days: historyDays}
	heap := startHeapSampler()
	defer heap.close()
	tr := newTracer(false, fmt.Sprintf("%s-seed%d-%d", s.name, seed, started.UnixNano()))
	c := &res.Checks
	layer := map[string]float64{}
	pops := populations(s, seed)
	if !traced {
		res.Inputs.Populations = pops
	}

	// Plan → deploy → replay passes: one per replayed population, over its
	// typical window, then a same-seed repeat of the first that the
	// determinism check compares; the repeat regenerates the workload so
	// the check covers generation too. Each pass holds only its own
	// population. A traced run makes one untraced pass and one traced,
	// profiled pass of the first population, with the traced pass's
	// workload built from the generator's two steps, each timed.
	passes := append(append([]int64(nil), pops[:s.replayed]...), seed)
	if traced {
		passes = []int64{seed, seed}
	}
	var w *thrifty.Workload // the last pass's workload: the run's own population
	var prof *cpuProfile
	var err error
	for i, popSeed := range passes {
		repeat := i == len(passes)-1
		if traced && repeat {
			tr.on = true
			w, err = buildWorkload(s, popSeed, tr, layer)
			if err == nil {
				prof, err = startCPUProfile(filepath.Join(outDir, res.runName()+".pipeline.pprof"))
			}
		} else {
			w, err = thrifty.GenerateWorkload(s.workloadConfig(popSeed))
		}
		if err != nil {
			return nil, fmt.Errorf("generate: %w", err)
		}
		win := typicalWindow(w, s.replayLen)
		it, err := iterate(s, w, win, tr, heap, prof)
		if err != nil {
			return nil, err
		}
		for p, v := range it.cpuShares {
			layer["cpu_share."+p] = v
		}
		prof = nil
		checkPlan(c, w, it.plan, it.sys)
		logged := loggedQueries(w, it.plan, win)
		checkReplay(c, it, logged)
		if repeat {
			checkSame(c, res.Iterations[0], it)
		} else {
			res.Inputs.Windows = append(res.Inputs.Windows, windowInput{popSeed, win.String(), logged, it.Groups})
			res.Inputs.ReplayQueries += logged
			res.Nodes = append(res.Nodes, it.Nodes)
			res.PlanS = append(res.PlanS, it.PlanS)
		}
		res.Attempted += it.Submitted
		res.Failed += it.SubmitErrs
		res.Iterations = append(res.Iterations, it)
		if traced && repeat {
			readReplayCounters(it, tr, layer)
			layer["master.deploy_s"] = it.DeployS
			if err := measurePlanLayers(s, w, it, tr, layer, c); err != nil {
				return nil, err
			}
			if err := measureProbes(w, it.plan, seed, tr, layer); err != nil {
				return nil, err
			}
		}
		// Drop the pass's system before the next one.
		res.Iterations[i].sys = nil
		res.Iterations[i].rep = nil
	}
	plan := res.Iterations[len(res.Iterations)-1].plan

	if !traced {
		// Plan the populations that are not replayed. plan_s is the median
		// over the populations' plans and nodes_used their mean, so both
		// speak for the workload's kind of population rather than for one
		// draw.
		for _, popSeed := range pops[s.replayed:] {
			other, err := thrifty.GenerateWorkload(s.workloadConfig(popSeed))
			if err != nil {
				return nil, fmt.Errorf("generate: %w", err)
			}
			goruntime.GC()
			start := time.Now()
			p, err := thrifty.PlanDeployment(other, s.planConfig())
			if err != nil {
				return nil, fmt.Errorf("plan: %w", err)
			}
			res.PlanS = append(res.PlanS, time.Since(start).Seconds())
			checkPlan(c, other, p, nil)
			res.Nodes = append(res.Nodes, p.NodesUsed())
		}
		// For --seconds, and at least minSetups times, repeat set-up;
		// setup_s is the median.
		for since := time.Now(); time.Since(since) < budget || len(res.SetupS) < minSetups; {
			d, err := setupOnce(s, seed, plan)
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			res.SetupS = append(res.SetupS, d)
		}
	}

	// The front door over a fresh deployment of the plan.
	if traced {
		if prof, err = startCPUProfile(filepath.Join(outDir, res.runName()+".serve.pprof")); err != nil {
			return nil, err
		}
	}
	fdRes, err := serveLadder(s, w, plan, seed, traced, tr, c)
	if prof != nil {
		shares, perr := prof.stop()
		if perr != nil && err == nil {
			err = perr
		}
		for p, v := range shares {
			layer["serve_cpu_share."+p] = v
		}
	}
	if err != nil {
		return nil, fmt.Errorf("front door: %w", err)
	}
	res.FrontDoor = fdRes
	for _, g := range plan.Groups {
		res.Inputs.ServedTenants += len(g.TenantIDs)
	}
	res.Attempted += fdRes.Attempted
	res.Failed += fdRes.Failed
	res.Diagnostic["served_attainment_x3600"] = fdRes.rate("x3600").ServedAttainment
	res.Diagnostic["failed_ratio"] = float64(res.Failed) / float64(res.Attempted)
	var rq []float64
	for _, it := range res.Iterations {
		rq = append(rq, float64(it.Records)/it.ReplayCPU)
	}
	res.Diagnostic["replay_cpu_qps"] = median(rq)
	for _, name := range []string{"x3600", "x7200"} {
		r := fdRes.rate(name)
		res.Diagnostic["submit_p50_ms."+name] = r.P50Ms
		res.Diagnostic["submit_p99_ms."+name] = r.P99Ms
	}
	res.Diagnostic["submit_cpu_us.x3600"] = fdRes.rate("x3600").CPUus

	if traced {
		frontDoorLayers(fdRes, layer)
		plain, traced := res.Iterations[0], res.Iterations[1]
		base := plain.PlanS + plain.DeployS + plain.ReplayS
		layer["trace.overhead_pct"] = 100 * ((traced.PlanS+traced.DeployS+traced.ReplayS)/base - 1)
		res.Spans = tr.spans
		for _, d := range perLayer() {
			v, ok := layer[d.name]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s was not measured", d.name)
			}
			res.Metrics = append(res.Metrics, metric{Name: d.name, Unit: d.unit, Value: v, Samples: summarize([]float64{v})})
		}
	} else {
		res.Metrics = res.endToEnd()
	}
	res.WallS = time.Since(started).Seconds()
	if err := res.write(outDir); err != nil {
		return nil, err
	}
	return res, nil
}

// endToEnd derives the end-to-end metrics from an untraced run. The last
// pass, the repeat, only checks determinism: it counts in no metric.
func (r *result) endToEnd() []metric {
	var heap []float64
	met, done, replayS := 0, 0, 0.0
	for _, it := range r.Iterations[:len(r.Iterations)-1] {
		met += it.Met
		done += it.Records
		replayS += it.ReplayS
		heap = append(heap, it.HeapMB)
	}
	nodes := 0.0
	for _, n := range r.Nodes {
		nodes += float64(n)
	}
	one := func(v float64) summary { return summarize([]float64{v}) }
	hi := r.FrontDoor.rate("x7200")
	vals := map[string]summary{
		"setup_s":             summarize(r.SetupS),
		"plan_s":              summarize(r.PlanS),
		"replay_qps":          one(float64(done) / replayS),
		"nodes_used":          one(nodes / float64(len(r.Nodes))),
		"sla_attainment":      one(float64(met) / float64(done)),
		"heap_peak_mb":        summarize(heap),
		"submit_cpu_us.x7200": summarize(hi.CPURounds),
	}
	out := make([]metric, 0, len(endToEnd))
	for _, d := range endToEnd {
		sm := vals[d.name]
		out = append(out, metric{Name: d.name, Unit: d.unit, Value: sm.Median, Samples: sm})
	}
	return out
}

func (r *result) runName() string {
	return fmt.Sprintf("%s-seed%d-trace%d", r.Provenance.Workload, r.Provenance.Seed, boolInt(r.Provenance.Traced))
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// write saves the full result, spans included, as JSON under dir.
func (r *result) write(dir string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.runName()+".json"), data, 0o644)
}

// print writes the human-readable report and, last, the contract line.
func (r *result) print(w io.Writer) {
	p := r.Provenance
	fmt.Fprintf(w, "perfbench %s seed=%d (%s) traced=%v\n%s\n", p.Workload, p.Seed, p.SeedRole, p.Traced, p.Why)
	fmt.Fprintf(w, "host: %s, nproc=%d, GOMAXPROCS=%d, %s, commit %s, source sha256 %.16s\n",
		p.CPU, p.NProc, p.GOMAXPROCS, p.GoVersion, p.Commit, p.SourceDigest)
	in := r.Inputs
	fmt.Fprintf(w, "inputs: %d tenants, %d-day history, populations %v; replayed %v = %d queries; front door serves %d tenants\n",
		in.Tenants, in.Days, in.Populations, in.Windows, in.ReplayQueries, in.ServedTenants)
	for _, rr := range r.FrontDoor.Rates {
		fmt.Fprintf(w, "front door %-6s offered %5.0f/s (time scale %.0f, %d rounds): p50 %.3f ms, p99 %.3f ms, lag p99 %.3f ms, %d/%d accepted, pass=%v\n",
			rr.Name, rr.QPS, rr.TimeScale, rr.Rounds, rr.P50Ms, rr.P99Ms, rr.LagP99Ms, rr.Accepted, rr.Submits, rr.Pass)
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "metric %-28s %14.6g %-8s (median of n=%d, q1 %.6g, q3 %.6g)\n",
			m.Name, m.Value, m.Unit, m.Samples.N, m.Samples.Q1, m.Samples.Q3)
	}
	keys := make([]string, 0, len(r.Diagnostic))
	for k := range r.Diagnostic {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "diagnostic %s = %v\n", k, r.Diagnostic[k])
	}
	fmt.Fprintf(w, "checks: %d passed, %d failed\n", r.Checks.Passed, len(r.Checks.Failed))
	for _, f := range r.Checks.Failed {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "attempted %d operations, %d failed; run took %.1f s\n", r.Attempted, r.Failed, r.WallS)

	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: len(r.Checks.Failed) == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]val{}}
	for _, m := range r.Metrics {
		line.Metrics[m.Name] = val{m.Value, m.Unit}
	}
	data, _ := json.Marshal(line)
	fmt.Fprintf(w, "%s\n", data)
}

func readProvenance(s spec, seed int64, traced bool) provenance {
	p := provenance{
		Workload:   s.name,
		Why:        s.why,
		Seed:       seed,
		SeedRole:   "other",
		Traced:     traced,
		CPU:        cpuModel(),
		NProc:      goruntime.NumCPU(),
		GOMAXPROCS: goruntime.GOMAXPROCS(0),
		GoVersion:  goruntime.Version(),
		Commit:     "unknown (not a git checkout)",
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
	switch {
	case seed == heldOutSeed:
		p.SeedRole = "held-out"
	case seed >= 1 && seed <= 10:
		p.SeedRole = "tuning"
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			p.Commit = strings.TrimSpace(string(out))
		}
	}
	p.SourceDigest = sourceDigest(".")
	return p
}

// cpuModel reads the host's CPU model name.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, so a
// result names the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			data, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
				h.Write(data)
			}
		}
		return nil
	})
	return fmt.Sprintf("%x", h.Sum(nil))
}
