package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	goruntime "runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	thrifty "repro"
	"repro/internal/admission"
	"repro/internal/sim"
)

// The front-door load comes from one process: senders goroutines over at
// most senders keep-alive connections, each sending the next due request
// of an open-loop schedule.
const senders = 2

// rate is one offered load of the front door.
type rate struct {
	name string
	qps  float64 // submits per wall second
}

// The fixed rates. x3600 and x7200 are the mean rates of the thriftyd
// default population's logged week (200 tenants) compressed 3600× and
// 7200× (1.94k/s and 3.88k/s at seed 1); every workload is loaded at these
// same rates, whatever its population. Above x7200 lies a fixed grid of
// rates 10% apart, up to about five times x7200, on which the highest rate
// that meets the latency limit is found by bisection.
var (
	x3600 = rate{"x3600", 1900}
	x7200 = rate{"x7200", 3800}
)

const (
	// fixedRounds is how many rounds each fixed rate is served for; its
	// latencies are the medians over the rounds. Rounds of x3600 and x7200
	// alternate, so a stall of the host hits one round, not one rate.
	fixedRounds = 3
	// roundSeconds is a fixed-rate round's length, grid probes last twice
	// as long; every round sends at least minRoundSubmits (so its p99 has
	// ten samples beyond it).
	roundSeconds    = 0.5
	minRoundSubmits = 1000
	gridRatio       = 1.1
	gridSteps       = 17 // the grid's top rate is 3800·1.1^17 ≈ 19.2k/s
	// latencyLimitMs is the p99 submit latency a rate must meet, with the
	// median of its last tenth (no growing backlog) and no failed request.
	latencyLimitMs = 20.0
)

func gridRate(k int) rate {
	q := x7200.qps * math.Pow(gridRatio, float64(k))
	return rate{fmt.Sprintf("r%.0f", q), q}
}

// frontDoor is a loopback http.Server in front of the system under test,
// behind a benchmark-side wrapper handler, and the client that drives it.
type frontDoor struct {
	srv    *http.Server
	served chan error
	base   string
	client *http.Client

	inner atomic.Pointer[http.Handler]
	// handlerNs, when set, receives ServeHTTP time by request sequence
	// number (the X-Seq header); only traced runs set it.
	handlerNs atomic.Pointer[[]atomic.Int64]
}

// listenFrontDoor starts serving h on a loopback port.
func listenFrontDoor(h http.Handler) (*frontDoor, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	fd := &frontDoor{
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        senders,
			MaxIdleConnsPerHost: senders,
			MaxConnsPerHost:     senders,
			DisableCompression:  true,
		}},
	}
	fd.inner.Store(&h)
	fd.srv = &http.Server{Handler: fd, ReadHeaderTimeout: 10 * time.Second}
	go func() { fd.served <- fd.srv.Serve(ln) }()
	return fd, nil
}

// startFrontDoor serves h and waits for its first health check to answer.
func startFrontDoor(h http.Handler) (*frontDoor, error) {
	fd, err := listenFrontDoor(h)
	if err != nil {
		return nil, err
	}
	resp, err := fd.client.Get(fd.base + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("HTTP %d", resp.StatusCode)
		}
	}
	if err != nil {
		fd.close()
		return nil, fmt.Errorf("front door health check: %w", err)
	}
	return fd, nil
}

// ServeHTTP is the wrapper: it hands the request to the current system's
// handler and, in a traced run, times that call.
func (fd *frontDoor) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := *fd.inner.Load()
	rec := fd.handlerNs.Load()
	if rec == nil {
		h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.ServeHTTP(w, r)
	d := time.Since(start)
	if seq, err := strconv.Atoi(r.Header.Get("X-Seq")); err == nil && seq >= 0 && seq < len(*rec) {
		(*rec)[seq].Store(int64(d))
	}
}

// close shuts the server down and waits until it has stopped serving.
func (fd *frontDoor) close() error {
	fd.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := fd.srv.Shutdown(ctx)
	if serr := <-fd.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// request is one entry of a round's open-loop schedule.
type request struct {
	due    time.Duration // offset from the round's start
	path   string
	body   []byte // nil for a GET
	scrape bool
}

// outcome is what the client saw for one request.
type outcome struct {
	lag      time.Duration // send time minus due time
	latency  time.Duration // response time minus due time
	rtt      time.Duration // response time minus send time
	status   int
	routedTo string
	err      error
}

// arrivals is the deployed tenants' logged week as (tenant, class) pairs,
// the population a schedule samples from.
type arrivals struct {
	tenants []string
	classes []string
	tenant  []uint16
	class   []uint8
	horizon sim.Time
}

func loadArrivals(w *thrifty.Workload, plan *thrifty.Plan) (*arrivals, error) {
	a := &arrivals{horizon: w.Horizon}
	classIdx := make(map[string]uint8)
	for _, tl := range w.Logs {
		if _, ok := plan.Group(tl.Tenant.ID); !ok {
			continue
		}
		if len(a.tenants) > math.MaxUint16 {
			return nil, fmt.Errorf("more than %d tenants", math.MaxUint16)
		}
		ti := uint16(len(a.tenants))
		a.tenants = append(a.tenants, tl.Tenant.ID)
		for _, ref := range tl.Sessions {
			for _, ev := range ref.Log.Events {
				if ref.Start+ev.Offset >= w.Horizon {
					continue
				}
				ci, ok := classIdx[ev.ClassID]
				if !ok {
					if len(a.classes) > math.MaxUint8 {
						return nil, fmt.Errorf("more than %d query classes", math.MaxUint8)
					}
					ci = uint8(len(a.classes))
					classIdx[ev.ClassID] = ci
					a.classes = append(a.classes, ev.ClassID)
				}
				a.tenant = append(a.tenant, ti)
				a.class = append(a.class, ci)
			}
		}
	}
	if len(a.tenant) == 0 {
		return nil, fmt.Errorf("no logged arrivals of deployed tenants")
	}
	return a, nil
}

// virtualRate is the week's mean arrival rate, queries per virtual second.
func (a *arrivals) virtualRate() float64 {
	return float64(len(a.tenant)) / a.horizon.Seconds()
}

// schedule draws n submits uniformly from the logged week and paces them
// evenly at qps, so each tenant arrives at its mean logged rate in virtual
// time. (The raw logged timing swings hour to hour from 0 to ~4× the mean,
// which would make a round's latency depend on where its window fell
// rather than on the server.) Reads go out beside the submits, one every
// half second starting a quarter second in, alternating GET /metrics and
// GET /v1/slo across the whole stage (*reads counts them): one of each per
// wall second.
func (a *arrivals) schedule(qps float64, n int, rng *rand.Rand, reads *int) []request {
	reqs := make([]request, 0, n+int(float64(n)/qps/0.5)+2)
	gap := time.Duration(float64(time.Second) / qps)
	nextRead := 250 * time.Millisecond
	for i := 0; i < n; i++ {
		due := time.Duration(i) * gap
		for nextRead <= due {
			path := "/metrics"
			if *reads%2 == 1 {
				path = "/v1/slo"
			}
			*reads++
			reqs = append(reqs, request{due: nextRead, path: path, scrape: true})
			nextRead += 500 * time.Millisecond
		}
		k := rng.Intn(len(a.tenant))
		body := fmt.Sprintf(`{"tenant":%q,"query":%q}`, a.tenants[a.tenant[k]], a.classes[a.class[k]])
		reqs = append(reqs, request{due: due, path: "/v1/queries", body: []byte(body)})
	}
	return reqs
}

// run dispatches reqs open-loop from senders goroutines and returns what
// each saw, and how long the senders spent polling the clock. Request i is
// due at start+reqs[i].due and is timed from then.
func (fd *frontDoor) run(reqs []request) ([]outcome, time.Duration, error) {
	outs := make([]outcome, len(reqs))
	waiters := make([]*waiter, senders)
	for s := range waiters {
		w, err := newWaiter()
		if err != nil {
			return nil, 0, err
		}
		defer w.close()
		waiters[s] = w
	}
	var next atomic.Int64
	errs := make([]error, senders)
	spun := make([]time.Duration, senders)
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(reqs[i].due)
				spin, err := waiters[s].until(due)
				if err != nil {
					errs[s] = err
					return
				}
				spun[s] += spin
				sent := time.Now()
				status, routedTo, err := fd.send(reqs[i], i)
				done := time.Now()
				outs[i] = outcome{lag: sent.Sub(due), latency: done.Sub(due), rtt: done.Sub(sent),
					status: status, routedTo: routedTo, err: err}
			}
		}(s)
	}
	wg.Wait()
	var spin time.Duration
	for _, d := range spun {
		spin += d
	}
	return outs, spin, errors.Join(errs...)
}

var routedKey = []byte(`"routed_to":"`)

// send issues one request and returns its status and, for an accepted
// submit, the instance it was routed to.
func (fd *frontDoor) send(r request, seq int) (int, string, error) {
	method := http.MethodGet
	var body io.Reader
	if r.body != nil {
		method = http.MethodPost
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(method, fd.base+r.path, body)
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("X-Seq", strconv.Itoa(seq))
	resp, err := fd.client.Do(req)
	if err != nil {
		return 0, "", err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, "", err
	}
	routed := ""
	if i := bytes.Index(data, routedKey); i >= 0 {
		rest := data[i+len(routedKey):]
		if j := bytes.IndexByte(rest, '"'); j >= 0 {
			routed = string(rest[:j])
		}
	}
	return resp.StatusCode, routed, nil
}

// rateResult is what the front door did at one offered rate.
type rateResult struct {
	Name      string  `json:"name"`
	QPS       float64 `json:"offered_qps"`
	TimeScale float64 `json:"time_scale"`
	Rounds    int     `json:"rounds"`
	Submits   int     `json:"submits"`
	Accepted  int     `json:"accepted"`
	Failed    int     `json:"failed"`
	Reads     int     `json:"reads"`
	// Latencies are medians over the rounds of each round's percentile.
	P50Ms     float64 `json:"submit_p50_ms"`
	P99Ms     float64 `json:"submit_p99_ms"`
	TailP50Ms float64 `json:"last_tenth_p50_ms"`
	Achieved  float64 `json:"achieved_qps"`
	LagP99Ms  float64 `json:"lag_p99_ms"`
	ReadMs    float64 `json:"read_p50_ms"`
	// CPUus is the process's CPU time per submit (server and client,
	// less the client's clock polling), the median over the rounds.
	CPUus     float64   `json:"cpu_us_per_submit"`
	CPURounds []float64 `json:"cpu_us_per_submit_rounds"`
	Pass      bool      `json:"pass"`

	// Served attainment as GET /v1/slo reports it after the drain: a
	// diagnostic, not a metric (submits carry no SLA target; see README).
	ServedAttainment float64 `json:"served_attainment"`

	HandlerP50Us float64 `json:"handler_p50_us,omitempty"`
	HandlerP99Us float64 `json:"handler_p99_us,omitempty"`
	NetP50Us     float64 `json:"net_overhead_p50_us,omitempty"`

	Admitted  int64 `json:"admitted"`
	Throttled int64 `json:"throttled"`
	Shed      int64 `json:"shed"`
}

// served is one fresh front-door deployment of the plan at one rate.
type served struct {
	rateResult
	sys       *thrifty.System
	h         http.Handler
	instances map[string]bool
	badRoute  int
	p50, p99  []float64 // per round
	tail      []float64 // per round
	achieved  []float64 // per round
	lags      []float64
	reads     []float64
	handler   []float64
	net       []float64
}

// stage is the front-door stage of a run.
type stage struct {
	fd    *frontDoor
	w     *thrifty.Workload
	plan  *thrifty.Plan
	opts  thrifty.DeployOptions
	arr   *arrivals
	rng   *rand.Rand
	reads int
	timed bool
	tr    *tracer
	c     *checks
}

// deploy brings the plan up afresh behind a handler whose time scale makes
// r the population's mean virtual arrival rate.
func (st *stage) deploy(r rate) (*served, error) {
	sv := &served{rateResult: rateResult{Name: r.name, QPS: r.qps, TimeScale: r.qps / st.arr.virtualRate()}}
	sys, err := thrifty.Deploy(st.w, st.plan, st.opts)
	if err != nil {
		return nil, fmt.Errorf("front-door deploy: %w", err)
	}
	sv.sys = sys
	sv.instances = make(map[string]bool)
	for _, g := range sys.Deployment.Groups() {
		for _, inst := range g.Instances {
			sv.instances[inst.ID()] = true
		}
	}
	if sv.h, err = sys.Handler(thrifty.ServeOptions{TimeScale: sv.TimeScale}); err != nil {
		return nil, fmt.Errorf("front-door handler: %w", err)
	}
	return sv, nil
}

// round serves n submits at the deployment's rate.
func (st *stage) round(sv *served, n int) error {
	end := st.tr.begin("service.round." + sv.Name)
	defer end()
	reqs := st.arr.schedule(sv.QPS, n, st.rng, &st.reads)
	var rec []atomic.Int64
	if st.timed {
		rec = make([]atomic.Int64, len(reqs))
		st.fd.handlerNs.Store(&rec)
	}
	st.fd.inner.Store(&sv.h)
	goruntime.GC() // earlier rounds' garbage is not this round's cost
	c0 := cpuNow()
	outs, spin, err := st.fd.run(reqs)
	cpu := cpuNow() - c0 - spin
	st.fd.handlerNs.Store(nil)
	if err != nil {
		return fmt.Errorf("load generator: %w", err)
	}
	var lat []float64
	var last time.Duration
	accepted := 0
	for i, o := range outs {
		ok := o.err == nil && o.status/100 == 2
		if !ok {
			sv.Failed++
		}
		if reqs[i].scrape {
			sv.Reads++
			sv.reads = append(sv.reads, ms(o.rtt))
			continue
		}
		sv.Submits++
		l := ms(o.latency)
		if !ok {
			l = math.Inf(1) // a failed submit misses any latency limit
		} else {
			accepted++
			if !sv.instances[o.routedTo] {
				sv.badRoute++
			}
		}
		lat = append(lat, l)
		sv.lags = append(sv.lags, ms(o.lag))
		if end := reqs[i].due + o.latency; end > last {
			last = end
		}
		if hn := int64(0); st.timed {
			if hn = rec[i].Load(); hn > 0 {
				sv.handler = append(sv.handler, float64(hn)/1e3)
				sv.net = append(sv.net, float64(o.rtt.Nanoseconds()-hn)/1e3)
			}
		}
	}
	sv.Accepted += accepted
	sv.Rounds++
	sv.CPURounds = append(sv.CPURounds, float64(cpu.Nanoseconds())/1e3/float64(len(lat)))
	sv.tail = append(sv.tail, percentile(append([]float64(nil), lat[len(lat)*9/10:]...), 50))
	sv.p50 = append(sv.p50, percentile(lat, 50))
	sv.p99 = append(sv.p99, percentile(lat, 99))
	sv.achieved = append(sv.achieved, float64(accepted)/last.Seconds())
	return nil
}

// finish drains the deployment, checks it, and summarizes its rounds.
// Draining runs every group's clock on, an hour at a time, until no query
// is left running; GET /v1/slo must then count each accepted query. (It
// advances the domains directly: Plane.AdvanceAll skips a group the
// brownout left shedding-only.)
func (st *stage) finish(sv *served) (rateResult, error) {
	doms := sv.sys.Deployment.Plane().Domains()
	last := doms.Now()
	for t, busy := last, true; busy; {
		if t > last+7*sim.Day {
			return sv.rateResult, fmt.Errorf("%s: queries still running a virtual week after the last submit", sv.Name)
		}
		t += sim.Hour
		busy = false
		for _, d := range doms {
			d.Advance(t, nil)
		}
		for _, g := range sv.sys.Deployment.Groups() {
			g.Domain().Do(func(*sim.Engine) {
				for _, inst := range g.Instances {
					busy = busy || inst.Running() > 0
				}
			})
		}
	}
	st.fd.inner.Store(&sv.h)
	var slo struct {
		Overall float64 `json:"overall_attainment"`
		Tenants []struct {
			Met    int64 `json:"met"`
			Missed int64 `json:"missed"`
		} `json:"tenants"`
	}
	if err := st.fd.getJSON("/v1/slo", &slo); err != nil {
		return sv.rateResult, err
	}
	var total int64
	for _, t := range slo.Tenants {
		total += t.Met + t.Missed
	}
	st.c.expect(sv.badRoute == 0, "%s: %d accepted submits name no deployed instance", sv.Name, sv.badRoute)
	st.c.expect(total == int64(sv.Accepted), "%s: /v1/slo counts %d completed queries after the drain, %d submits were accepted",
		sv.Name, total, sv.Accepted)
	for _, g := range sv.sys.Deployment.Groups() {
		if g.Admission == nil {
			continue
		}
		for _, ts := range g.Admission.TenantStats() {
			sv.Admitted += ts.Admitted
			sv.Throttled += ts.Throttled
			sv.Shed += ts.Shed
		}
	}
	r := sv.rateResult
	r.ServedAttainment = slo.Overall
	r.P50Ms = median(sv.p50)
	r.P99Ms = median(sv.p99)
	r.TailP50Ms = median(sv.tail)
	r.Achieved = median(sv.achieved)
	r.LagP99Ms = percentile(sv.lags, 99)
	r.ReadMs = median(sv.reads)
	r.CPUus = median(sv.CPURounds)
	if st.timed {
		r.HandlerP50Us = percentile(append([]float64(nil), sv.handler...), 50)
		r.HandlerP99Us = percentile(sv.handler, 99)
		r.NetP50Us = percentile(sv.net, 50)
	}
	r.Pass = r.Failed == 0 && r.P99Ms <= latencyLimitMs && r.TailP50Ms <= latencyLimitMs
	return r, nil
}

// ladderResult is the front-door stage's outcome.
type ladderResult struct {
	Rates      []rateResult `json:"rates"`
	MaxRateQPS float64      `json:"max_rate_qps"`
	Attempted  int          `json:"attempted"`
	Failed     int          `json:"failed"`
}

func (l *ladderResult) rate(name string) rateResult {
	for _, r := range l.Rates {
		if r.Name == name {
			return r
		}
	}
	return rateResult{}
}

func (l *ladderResult) add(r rateResult) {
	l.Rates = append(l.Rates, r)
	l.Attempted += r.Submits + r.Reads
	l.Failed += r.Failed
	if r.Pass && r.Achieved > l.MaxRateQPS {
		l.MaxRateQPS = r.Achieved
	}
}

// serveLadder is the front-door stage. It serves x3600 and x7200 in
// alternating rounds, each on its own fresh deployment of the plan
// (thriftyd's arming). A traced run then bisects the rate grid for the
// highest rate that meets the latency limit, one fresh deployment per
// probe.
func serveLadder(s spec, w *thrifty.Workload, plan *thrifty.Plan, seed int64, timed bool, tr *tracer, c *checks) (*ladderResult, error) {
	arr, err := loadArrivals(w, plan)
	if err != nil {
		return nil, err
	}
	opts := serveDeploy(s.sharing)
	opts.Admission.Contracts = admission.ContractsFromLogs(w.Logs, opts.Admission.Headroom)
	fd, err := listenFrontDoor(http.NotFoundHandler())
	if err != nil {
		return nil, err
	}
	st := &stage{fd: fd, w: w, plan: plan, opts: opts, arr: arr, rng: rand.New(rand.NewSource(seed)), timed: timed, tr: tr, c: c}
	res := &ladderResult{}
	err = st.climb(res)
	if cerr := fd.close(); err == nil {
		err = cerr
	}
	return res, err
}

func (st *stage) climb(res *ladderResult) error {
	fixed := []*served{}
	for _, r := range []rate{x3600, x7200} {
		sv, err := st.deploy(r)
		if err != nil {
			return err
		}
		fixed = append(fixed, sv)
	}
	for i := 0; i < fixedRounds; i++ {
		for _, sv := range fixed {
			if err := st.round(sv, max(minRoundSubmits, int(sv.QPS*roundSeconds))); err != nil {
				return err
			}
		}
	}
	pass := true
	for _, sv := range fixed {
		r, err := st.finish(sv)
		if err != nil {
			return err
		}
		res.add(r)
		pass = pass && r.Pass
	}
	// Bisect the grid for its highest passing rate: grid rate 0 is x7200,
	// which passed, and one step past the grid's top counts as failing.
	for lo, hi := 0, gridSteps+1; st.timed && pass && hi-lo > 1; {
		mid := (lo + hi) / 2
		sv, err := st.deploy(gridRate(mid))
		if err != nil {
			return err
		}
		if err := st.round(sv, max(minRoundSubmits, int(sv.QPS*2*roundSeconds))); err != nil {
			return err
		}
		r, err := st.finish(sv)
		if err != nil {
			return err
		}
		res.add(r)
		if r.Pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	return nil
}

func (fd *frontDoor) getJSON(path string, v any) error {
	resp, err := fd.client.Get(fd.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
