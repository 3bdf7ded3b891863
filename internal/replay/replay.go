// Package replay drives a live deployment with recorded tenant logs: it
// materializes every query submission in a time window, routes each through
// the deployment's per-group routers at its logged time (open loop), and
// samples run-time statistics. This is the run-time half of the evaluation
// testbed — the §7.5 elastic-scaling experiment, the SLA-attainment
// validation and every fault scenario run on it. Faults enter as
// Injectors (and the Failures crash schedule); Inspect condenses what a run
// left behind for the scenarios' shared verifiers.
package replay

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/master"
	"repro/internal/monitor"
	"repro/internal/queries"
	"repro/internal/recovery"
	"repro/internal/scaling"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TakeOver reproduces the §7.5 intervention: "we manually took over a tenant
// at time Y and continuously submitted queries to the system on behalf of
// that tenant".
type TakeOver struct {
	// Tenant to take over.
	Tenant string
	// Start of the continuous submission.
	Start sim.Time
	// Interval between submissions (continuous = shorter than the query
	// latency).
	Interval time.Duration
	// ClassID of the query to hammer with.
	ClassID string
}

// Failure injects a node failure (§4.4): at At, one node of the group's
// MPPDB fails (at the instance and, when the pool holds an active node for
// it, at the pool too). The MPPDB stays online with degraded throughput;
// detection and repair are autonomous — the group's recovery.Controller
// notices the failure on its next heartbeat, swaps the node at the pool,
// prices replacement startup plus the Table 5.1 bulk reload, and restores
// full speed. Scripted and service-path recovery share that one code path.
type Failure struct {
	// At is the failure instant.
	At sim.Time
	// Group identifies the tenant-group.
	Group string
	// Instance indexes the group's MPPDBs (0 = the tuning MPPDB G₀).
	Instance int
}

// Options configures a replay run.
type Options struct {
	// From and To bound the replayed window.
	From, To sim.Time
	// EnableScaling arms the lightweight elastic scaler.
	EnableScaling bool
	// ScalerConfig parameterizes the scaler when enabled.
	ScalerConfig scaling.Config
	// SampleEvery sets the statistics sampling period (default 10 min).
	SampleEvery time.Duration
	// TakeOver, when non-nil, injects the §7.5 over-activity.
	TakeOver *TakeOver
	// Failures injects node failures.
	Failures []Failure
	// Recovery overrides the recovery controllers' config when failures are
	// injected (default recovery.DefaultConfig).
	Recovery *recovery.Config
	// DrainSlack extends the post-window drain that lets in-flight queries —
	// and, with failures, recoveries and re-images — settle (default one
	// day). Long reloads of data-heavy groups can need more.
	DrainSlack time.Duration
	// SLASlack, when positive, scales every logged query's SLO target (its
	// zero-headroom pre-consolidation latency) by this factor.
	SLASlack float64
	// Injectors schedule faults and hostile load on the engine. Run calls
	// them in order before it schedules any logged traffic, so an injection
	// tied with a submission fires first. They need a deployment with one
	// clock domain.
	Injectors []Injector
	// Admit sends logged submissions through their group's admission
	// controller first, tallying rejections in Report.Throttled and
	// Report.Shed.
	Admit bool
}

// Injector schedules one fault (or hostile load) against the deployment on
// the replay's engine (the deployment's only clock domain). opts is the run's configuration: the window an
// injection must fit and the SLO slack of the traffic it competes with.
type Injector interface {
	Inject(eng *sim.Engine, dep *master.Deployment, opts Options) error
}

// SLATarget applies SLASlack to a logged SLO target.
func (o *Options) SLATarget(logged sim.Time) sim.Time {
	if o.SLASlack > 0 {
		return sim.Time(float64(logged) * o.SLASlack)
	}
	return logged
}

// drainUntil returns the absolute end of the post-window drain.
func (o Options) drainUntil() sim.Time {
	if o.DrainSlack > 0 {
		return o.To.Add(o.DrainSlack)
	}
	return o.To + sim.Day
}

// FailureEvent records an injected failure's lifecycle.
type FailureEvent struct {
	Failure
	// MPPDB is the degraded instance's ID, filled at injection.
	MPPDB string
	// Node is the pool node failed alongside the instance, -1 when the pool
	// held no active node for it.
	Node int
	// RepairedAt is when autonomous recovery restored full speed (zero when
	// recovery had not completed by the end of the drain).
	RepairedAt sim.Time
	// Err is non-empty when the injection could not be applied.
	Err string
}

// Sample is one point of a group's run-time timeline.
type Sample struct {
	At     sim.Time
	RTTTP  float64
	Active int
}

// Report is the outcome of a replay.
type Report struct {
	// Samples holds each group's timeline.
	Samples map[string][]Sample
	// Records are all completed queries, in deployment group order (each
	// group's in completion order).
	Records []monitor.QueryRecord
	// ScalingEvents are the elastic-scaling actions taken (empty when
	// scaling is disabled).
	ScalingEvents []scaling.Event
	// FailureEvents are the injected node failures and their repairs.
	FailureEvents []FailureEvent
	// RecoveryEvents are the controllers' recovery lifecycles (empty when no
	// failures were injected), in deployment group order.
	RecoveryEvents []recovery.Event
	// Submitted and SubmitErrors count routing attempts and failures.
	Submitted    int
	SubmitErrors int
	// Throttled and Shed count logged submissions admission rejected with
	// a 429 or a 503 (zero unless Options.Admit).
	Throttled, Shed int

	// to is the window's end; samples at or after it belong to the drain.
	to sim.Time
}

// SLAAttainment returns the fraction of completed queries that met their
// latency SLA.
func (r *Report) SLAAttainment() float64 {
	if len(r.Records) == 0 {
		return 1
	}
	met := 0
	for _, rec := range r.Records {
		if rec.SLAMet() {
			met++
		}
	}
	return float64(met) / float64(len(r.Records))
}

// AppliedFailures counts the injected failures that took a node down (a
// repeat crash is rejected while the instance sits at its minimum).
func (r *Report) AppliedFailures() int {
	n := 0
	for _, fe := range r.FailureEvents {
		if fe.Err == "" {
			n++
		}
	}
	return n
}

// MinRTTTP returns the lowest sampled RT-TTP of the group.
func (r *Report) MinRTTTP(group string) float64 {
	min := 1.0
	for _, s := range r.Samples[group] {
		if s.RTTTP < min {
			min = s.RTTTP
		}
	}
	return min
}

// Run replays the logs' query events in [From, To) against the deployment.
// Tenants in the logs that are not deployed (e.g. excluded ones) are
// skipped. One loop drives each of the deployment's clock domains: a shared
// deployment has one, a sharded one has one per tenant-group. Tenant-groups
// share nothing at query time (§3–§5), so the domains advance concurrently
// and every domain's trajectory is the same as if it ran alone; the report
// merges them in deployment group order. Each domain is run to the end of
// the window plus a drain for in-flight queries. Injectors act on one
// engine, so they are refused on a deployment with more than one domain.
func Run(dep *master.Deployment, cat *queries.Catalog,
	logs []*workload.TenantLog, opts Options) (*Report, error) {
	if opts.To <= opts.From {
		return nil, fmt.Errorf("replay: window [%v,%v)", opts.From, opts.To)
	}
	if opts.SampleEvery <= 0 {
		opts.SampleEvery = 10 * time.Minute
	}
	doms := dep.Plane().Domains()
	if len(opts.Injectors) > 0 && len(doms) > 1 {
		return nil, fmt.Errorf("replay: injectors need one clock domain, the deployment has %d", len(doms))
	}
	lanes := make([]*lane, len(doms))
	byDom := make(map[*sim.Domain]*lane, len(doms))
	for i, d := range doms {
		lanes[i] = &lane{dom: d, rep: &Report{Samples: make(map[string][]Sample)}}
		byDom[d] = lanes[i]
	}
	for _, g := range dep.Groups() {
		l := byDom[g.Domain()]
		l.groups = append(l.groups, g)
	}
	if to := opts.TakeOver; to != nil {
		class, ok := cat.ByID(to.ClassID)
		if !ok {
			return nil, fmt.Errorf("replay: unknown take-over class %s", to.ClassID)
		}
		g, ok := dep.GroupFor(to.Tenant)
		if !ok {
			return nil, fmt.Errorf("replay: take-over tenant %s not deployed", to.Tenant)
		}
		byDom[g.Domain()].takeOver = class
	}
	for _, tl := range logs {
		if g, ok := dep.GroupFor(tl.Tenant.ID); ok {
			l := byDom[g.Domain()]
			l.logs = append(l.logs, tl)
		}
	}
	// A failure fires on its group's domain; one naming no group fires on
	// the first, where it records its error.
	rep := &Report{Samples: make(map[string][]Sample), to: opts.To}
	for fi, f := range opts.Failures {
		rep.FailureEvents = append(rep.FailureEvents, FailureEvent{Failure: f, Node: -1})
		l := lanes[0]
		if g, ok := dep.Plane().GroupByID(f.Group); ok {
			l = byDom[g.Domain()]
		}
		l.failures = append(l.failures, fi)
	}

	errs := make([]error, len(lanes))
	var wg sync.WaitGroup
	for i, l := range lanes {
		wg.Add(1)
		go func(i int, l *lane) {
			defer wg.Done()
			errs[i] = l.run(dep, cat, rep.FailureEvents, opts)
		}(i, l)
	}
	wg.Wait()
	for i, l := range lanes {
		if errs[i] != nil {
			return nil, errs[i]
		}
		for id, s := range l.rep.Samples {
			rep.Samples[id] = s
		}
		rep.ScalingEvents = append(rep.ScalingEvents, l.rep.ScalingEvents...)
		rep.RecoveryEvents = append(rep.RecoveryEvents, l.rep.RecoveryEvents...)
		rep.Submitted += l.rep.Submitted
		rep.SubmitErrors += l.rep.SubmitErrors
		rep.Throttled += l.rep.Throttled
		rep.Shed += l.rep.Shed
	}
	rep.Records = dep.Records()
	fillRepairs(rep.FailureEvents, rep.RecoveryEvents)
	return rep, nil
}

// lane is one clock domain's share of a replay: the groups it drives, their
// logs and scripted failures, and a partial report only its own goroutine
// writes.
type lane struct {
	dom      *sim.Domain
	groups   []*master.DeployedGroup
	logs     []*workload.TenantLog
	failures []int          // indices into the run's FailureEvents
	takeOver *queries.Class // the take-over's class when its tenant is here
	rep      *Report
}

// run schedules the lane's share of the replay on its domain, then advances
// the domain through the window and the drain.
func (l *lane) run(dep *master.Deployment, cat *queries.Catalog, fails []FailureEvent, opts Options) error {
	var scaler *scaling.Scaler
	var controllers []*recovery.Controller
	var err error
	l.dom.Do(func(eng *sim.Engine) {
		scaler, controllers, err = l.schedule(eng, dep, cat, fails, opts)
	})
	if err != nil {
		return err
	}
	l.dom.Advance(opts.To, nil)
	// Let in-flight queries finish; the scaler's periodic tick (and the
	// recovery heartbeat) would run forever, so bound the drain.
	l.dom.Advance(opts.drainUntil(), nil)

	if scaler != nil {
		l.rep.ScalingEvents = scaler.Events()
	}
	for _, rc := range controllers {
		l.rep.RecoveryEvents = append(l.rep.RecoveryEvents, rc.Events()...)
	}
	return nil
}

// schedule puts the lane's events on its engine: injectors, logged
// submissions, the take-over, recovery arming and failures, sampling, and
// the scaler. Events tied at one instant fire in that order, which the
// experiments' golden hashes pin.
func (l *lane) schedule(eng *sim.Engine, dep *master.Deployment, cat *queries.Catalog,
	fails []FailureEvent, opts Options) (*scaling.Scaler, []*recovery.Controller, error) {
	if eng.Now() > opts.From {
		return nil, nil, fmt.Errorf("replay: engine already at %v, window starts %v", eng.Now(), opts.From)
	}
	for _, inj := range opts.Injectors {
		if err := inj.Inject(eng, dep, opts); err != nil {
			return nil, nil, err
		}
	}

	// Query submissions, one event each. The tenant's group and ref are
	// resolved when the event fires, so a tenant migrated meanwhile by the
	// online control loop routes to its new group.
	rep, admit := l.rep, opts.Admit
	for _, tl := range l.logs {
		for _, ev := range tl.Materialize(opts.From, opts.To) {
			class, ok := cat.ByID(ev.ClassID)
			if !ok {
				return nil, nil, fmt.Errorf("replay: unknown query class %s", ev.ClassID)
			}
			tenantID, sla := ev.Tenant, opts.SLATarget(ev.SLATarget)
			eng.Schedule(ev.At, func(sim.Time) {
				rep.submit(dep, tenantID, class, sla, admit)
			})
		}
	}

	// Take-over injection. The interval is a floor, not an open-loop rate:
	// a new query is only submitted once the previous one finishes — the
	// paper's tester "continuously submitted queries" one after another
	// (§7.5). An open loop with an interval under the query latency would
	// grow an unbounded queue, which no real client does, and the victim's
	// self-inflicted slowdown would drown the group's numbers.
	if class := l.takeOver; class != nil {
		to := opts.TakeOver
		group, _ := dep.GroupFor(to.Tenant)
		eng.Schedule(to.Start, func(sim.Time) {
			if h := dep.Telemetry(); h != nil {
				h.Events.Publish(telemetry.Event{
					Type:   telemetry.EventTakeOver,
					Group:  group.Plan.ID,
					Tenant: to.Tenant,
					Detail: fmt.Sprintf("continuous %s every %v", to.ClassID, to.Interval),
				})
			}
		})
		var hammer func(now sim.Time)
		hammer = func(now sim.Time) {
			if now >= opts.To {
				return
			}
			// Re-resolve the victim's group every round: the online control
			// loop may have live-migrated the tenant since the last query
			// (for a static deployment this is the same group every time).
			g, ok := dep.GroupFor(to.Tenant)
			if ok && g.Router.TenantInFlight(to.Tenant) == 0 {
				rep.Submitted++
				if _, err := dep.Submit(to.Tenant, class); err != nil {
					rep.SubmitErrors++
				}
			}
			eng.After(to.Interval, hammer)
		}
		eng.Schedule(to.Start, hammer)
	}

	// Failure injection (§4.4). The injector only breaks things: it degrades
	// the instance and fails the backing pool node. Detection and repair run
	// on the groups' recovery controllers — the same autonomous path the
	// service uses — armed here only when there are failures to recover, so
	// failure-free replays keep their pre-controller event schedule
	// bit-identically.
	var controllers []*recovery.Controller
	if len(opts.Failures) > 0 {
		for _, g := range l.groups {
			if g.Recovery == nil {
				rc, err := recovery.New(eng, dep.Pool(), g.Plan.ID, g.Instances, recoveryConfig(opts))
				if err != nil {
					return nil, nil, err
				}
				rc.SetTelemetry(dep.Telemetry())
				rc.Start()
				g.Recovery = rc
			}
			controllers = append(controllers, g.Recovery)
		}
	}
	for _, fi := range l.failures {
		ev := &fails[fi]
		eng.Schedule(ev.At, func(sim.Time) { injectFailure(dep, ev) })
	}

	// Statistics sampling of the domain's groups, as of each sample (online
	// migrations attach and release groups). Each sample also lands on the
	// telemetry RT-TTP gauge, so a /metrics scrape sees the timeline the
	// report sees.
	var sample func(now sim.Time)
	sample = func(now sim.Time) {
		for _, g := range dep.Groups() {
			if g.Domain() != l.dom {
				continue
			}
			rt := g.Monitor.RTTTP()
			rep.Samples[g.Plan.ID] = append(rep.Samples[g.Plan.ID], Sample{
				At:     now,
				RTTTP:  rt,
				Active: g.Monitor.ActiveTenants(),
			})
			if h := dep.Telemetry(); h != nil {
				h.Registry.Gauge("thrifty_group_rt_ttp", "group", g.Plan.ID).Set(rt)
			}
		}
		if now < opts.To {
			eng.After(opts.SampleEvery, sample)
		}
	}
	eng.Schedule(opts.From, sample)

	// Elastic scaling: one scaler per domain, all drawing from the shared
	// (mutex-protected) node pool. Each scaler numbers its own groups'
	// scale-up instances, so their IDs stay deterministic.
	if !opts.EnableScaling {
		return nil, controllers, nil
	}
	scaler, err := scaling.New(eng, dep.Pool(), opts.ScalerConfig)
	if err != nil {
		return nil, nil, err
	}
	scaler.SetTelemetry(dep.Telemetry())
	for _, g := range l.groups {
		scaler.Watch(&scaling.Target{Router: g.Router, Monitor: g.Monitor, Members: g.Members})
	}
	scaler.Start()
	return scaler, controllers, nil
}

// submit routes one logged query through the router of the group the
// tenant belongs to now. With admit set it must first pass the group's
// admission controller; a rejection is tallied, never retried.
func (r *Report) submit(dep *master.Deployment, tenantID string, class *queries.Class, sla sim.Time, admit bool) {
	r.Submitted++
	g, ref, ok := dep.Plane().ForTenantRef(tenantID)
	if !ok {
		r.SubmitErrors++
		return
	}
	if admit && g.Admission != nil {
		if err := g.Admission.Admit(tenantID, sla, false); err != nil {
			var ce *admission.ContractExceededError
			if errors.As(err, &ce) {
				r.Throttled++
			} else {
				r.Shed++
			}
			return
		}
	}
	if _, err := g.Router.SubmitRef(ref, class, sla); err != nil {
		r.SubmitErrors++
	}
}

// recoveryConfig resolves the controllers' config for a run with failures.
func recoveryConfig(opts Options) recovery.Config {
	if opts.Recovery != nil {
		return *opts.Recovery
	}
	return recovery.DefaultConfig()
}

// injectFailure applies one scripted failure against the deployment: the
// instance loses a node and the pool's backing node (if any is active for
// that instance) is marked Failed, so the controller's swap has a node to
// cart away. The caller must own the group's clock domain.
func injectFailure(dep *master.Deployment, ev *FailureEvent) {
	g, ok := dep.Plane().GroupByID(ev.Group)
	if !ok {
		ev.Err = fmt.Sprintf("no group %q", ev.Group)
		return
	}
	if ev.Instance < 0 || ev.Instance >= len(g.Instances) {
		ev.Err = fmt.Sprintf("group %s has no instance %d", ev.Group, ev.Instance)
		return
	}
	inst := g.Instances[ev.Instance]
	if err := inst.FailNode(); err != nil {
		ev.Err = err.Error()
		return
	}
	ev.MPPDB = inst.ID()
	if id, err := dep.Pool().FailAny(inst.ID()); err == nil {
		ev.Node = id
	}
	if h := dep.Telemetry(); h != nil {
		h.Events.Publish(telemetry.Event{
			Type:   telemetry.EventNodeFailure,
			Group:  ev.Group,
			MPPDB:  inst.ID(),
			Value:  float64(inst.FailedNodes()),
			Detail: "degraded; awaiting autonomous recovery",
		})
	}
}

// fillRepairs back-fills FailureEvent.RepairedAt from the controllers'
// lifecycles: the k-th applied injection against an instance (by failure
// instant) maps to the instance's k-th detected recovery.
func fillRepairs(fails []FailureEvent, recs []recovery.Event) {
	byDB := make(map[string][]recovery.Event)
	for _, r := range recs {
		byDB[r.MPPDB] = append(byDB[r.MPPDB], r)
	}
	order := make([]int, 0, len(fails))
	for i := range fails {
		if fails[i].Err == "" && fails[i].MPPDB != "" {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		return fails[order[a]].At < fails[order[b]].At
	})
	next := make(map[string]int)
	for _, i := range order {
		db := fails[i].MPPDB
		k := next[db]
		next[db] = k + 1
		if k < len(byDB[db]) && byDB[db][k].Recovered() {
			fails[i].RepairedAt = byDB[db][k].Completed
		}
	}
}
