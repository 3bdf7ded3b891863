package chaos

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/queries"
	"repro/internal/recovery"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/internal/workload"
)

type world struct {
	eng  *sim.Engine
	cat  *queries.Catalog
	dep  *master.Deployment
	logs []*workload.TenantLog
	plan *advisor.Plan
}

// buildWorld composes a small population's logs, plans it with replication
// r over the given failure domains (0 or 1: a single domain), and deploys
// the plan under the posture opts derives from the logs, on the pool sized
// from the plan's footprint.
func buildWorld(t *testing.T, tenants, days, r, domains int,
	pool func(used int) *cluster.Pool, opts func([]*workload.TenantLog) master.Options) *world {
	t.Helper()
	cat := queries.Default()
	lib, err := workload.BuildLibrary(cat, []int{2}, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	pop, err := tenant.Population(rng, tenants, 0.8, []int{2}, tenant.ZoneOffsets)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := workload.DefaultComposeConfig(3)
	ccfg.Days = days
	ccfg.Holidays = 0
	logs, err := workload.Compose(lib, pop, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	acfg := advisor.DefaultConfig()
	acfg.R = r
	acfg.FailureDomains = domains
	adv, err := advisor.New(acfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := adv.Plan(logs, ccfg.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	m := master.New(eng, pool(plan.NodesUsed()), opts(logs))
	byID := map[string]*tenant.Tenant{}
	for _, tn := range pop {
		byID[tn.ID] = tn
	}
	dep, err := m.Deploy(plan, byID)
	if err != nil {
		t.Fatal(err)
	}
	return &world{eng: eng, cat: cat, dep: dep, logs: logs, plan: plan}
}

// newWorld builds a consolidated deployment and its logs. poolFactor sizes
// the node pool as a multiple of the plan's footprint: 1 leaves no spare
// capacity for replacements.
func newWorld(t *testing.T, tenants, days, r int, sharded bool, poolFactor int) *world {
	t.Helper()
	return buildWorld(t, tenants, days, r, 0,
		func(used int) *cluster.Pool { return cluster.NewPool(poolFactor * used) },
		func([]*workload.TenantLog) master.Options { return master.Options{Immediate: true, Sharded: sharded} })
}

// shardedWorld is a sharded deployment of several tenant-groups, hence of
// several clock domains, on which replay refuses injectors.
func shardedWorld(t *testing.T) *world {
	t.Helper()
	w := newWorld(t, 10, 2, 3, true, 1)
	if n := len(w.dep.Plane().Domains()); n < 2 {
		t.Fatalf("sharded world has %d clock domains, want ≥2", n)
	}
	return w
}

// replay drives the world's deployment with logs under opts and inspects
// the outcome.
func (w *world) replay(logs []*workload.TenantLog, opts replay.Options) (*replay.Report, replay.Outcome, error) {
	rep, err := replay.Run(w.dep, w.cat, logs, opts)
	if err != nil {
		return nil, replay.Outcome{}, err
	}
	return rep, replay.Inspect(w.dep, rep), nil
}

// crash builds the seeded crash schedule over [0, to) and replays the whole
// world under it.
func (w *world) crash(t *testing.T, cfg Config, opts replay.Options) (*replay.Report, replay.Outcome) {
	t.Helper()
	sched, err := BuildSchedule(w.dep, opts.From, opts.To, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts.Failures = sched
	rep, out, err := w.replay(w.logs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep, out
}

func countEvents(h *telemetry.Hub, typ telemetry.EventType) int {
	n := 0
	for _, ev := range h.Events.Recent(0) {
		if ev.Type == typ {
			n++
		}
	}
	return n
}

// TestChaosEndToEnd is the acceptance run: a sharded R=3 deployment under a
// randomized schedule of crashes, repeat crashes, and bursts. No scripted
// repair exists anywhere — detection is the controllers' heartbeat, repair
// the §4.4 swap + Table 5.1 reload — yet SLA attainment holds above the
// plan's P and the pool ends leak-free.
func TestChaosEndToEnd(t *testing.T) {
	w := newWorld(t, 10, 2, 3, true, 3)
	cfg := DefaultConfig()
	cfg.Seed = 42
	cfg.MeanBetween = 90 * time.Minute
	cfg.RepeatProb = 0.3
	cfg.BurstProb = 0.2
	cfg.MaxFailures = 10
	rep, out := w.crash(t, cfg, replay.Options{To: sim.Day})
	applied := rep.AppliedFailures()
	if applied < 3 {
		t.Fatalf("only %d failures applied (schedule %d) — not enough chaos", applied, len(rep.FailureEvents))
	}
	if err := out.Verify(); err != nil {
		t.Error(err)
	}
	if p := w.plan.Config.P; out.MinRTTTP < p {
		t.Errorf("RT-TTP dipped to %.4f < %.4f", out.MinRTTTP, p)
	}
	// Every applied failure ran one full autonomous lifecycle.
	if len(rep.RecoveryEvents) != applied || out.Recovered != applied {
		t.Errorf("%d recovery lifecycles (%d recovered) for %d applied failures",
			len(rep.RecoveryEvents), out.Recovered, applied)
	}
	for _, rec := range rep.RecoveryEvents {
		if !rec.Recovered() || rec.Attempts < 1 || rec.Detected <= 0 {
			t.Errorf("incomplete lifecycle %+v", rec)
		}
	}
	h := w.dep.Telemetry()
	if got := countEvents(h, telemetry.EventRecoveryStarted); got != applied {
		t.Errorf("%d recovery_started events, want %d", got, applied)
	}
	if got := countEvents(h, telemetry.EventRecoveryCompleted); got != out.Recovered {
		t.Errorf("%d recovery_completed events, want %d", got, out.Recovered)
	}
}

// TestChaosPoolExhaustion starves the pool (no spare nodes): recovery can
// never complete, but it must degrade loudly — recovery_failed telemetry,
// backoff cycles, the run and drain completing — rather than deadlock.
func TestChaosPoolExhaustion(t *testing.T) {
	w := newWorld(t, 4, 1, 2, false, 1)
	rcfg := recovery.DefaultConfig()
	rcfg.MaxAttempts = 2
	rcfg.CoolDown = 30 * time.Minute
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.RepeatProb, cfg.BurstProb = 0, 0
	cfg.MaxFailures = 2
	rep, out := w.crash(t, cfg, replay.Options{To: sim.Day, Recovery: &rcfg})
	applied := rep.AppliedFailures()
	if applied < 1 {
		t.Fatal("no failure applied")
	}
	if out.Recovered != 0 {
		t.Errorf("%d recoveries completed with an empty pool", out.Recovered)
	}
	if out.InFlight != applied {
		t.Errorf("%d recoveries in flight, want %d still retrying", out.InFlight, applied)
	}
	if out.FailedNodes < 1 {
		t.Error("no failed node left in the pool")
	}
	if countEvents(w.dep.Telemetry(), telemetry.EventRecoveryFailed) == 0 {
		t.Error("pool exhaustion produced no recovery_failed events")
	}
	if err := out.Verify(); err == nil {
		t.Error("Verify passed an unrecovered run")
	}
}

// TestChaosScheduleDeterministic: the schedule is a pure function of the
// deployment shape and config.
func TestChaosScheduleDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a, err := BuildSchedule(newWorld(t, 6, 1, 2, false, 2).dep, 0, sim.Day, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildSchedule(newWorld(t, 6, 1, 2, false, 2).dep, 0, sim.Day, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("schedules diverged:\n%+v\n%+v", a, b)
	}
}

func TestChaosValidation(t *testing.T) {
	w := newWorld(t, 4, 1, 2, false, 2)
	bad := []struct {
		from, to sim.Time
		cfg      Config
	}{
		{sim.Day, 0, Config{Seed: 1, MeanBetween: time.Hour, MaxFailures: 1}},
		{0, sim.Day, Config{Seed: 1, MeanBetween: 0, MaxFailures: 1}},
		{0, sim.Day, Config{Seed: 1, MeanBetween: time.Hour, MaxFailures: 0}},
		{0, sim.Day, Config{Seed: 1, MeanBetween: time.Hour, MaxFailures: 1, RepeatProb: 0.5}},
	}
	for i, tc := range bad {
		if _, err := BuildSchedule(w.dep, tc.from, tc.to, tc.cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// requireTelemetryDeterminism is the determinism guard for a fault scenario
// on a shared clock domain: run, against a freshly built world each call,
// must reproduce the telemetry event and trace streams byte for byte.
func requireTelemetryDeterminism(t *testing.T, run func(t *testing.T) *world) {
	t.Helper()
	dump := func() (events, traces []byte) {
		hub := run(t).dep.Telemetry()
		var ev, tr bytes.Buffer
		if err := hub.Events.Dump(&ev); err != nil {
			t.Fatal(err)
		}
		if err := hub.Tracer.Dump(&tr); err != nil {
			t.Fatal(err)
		}
		return ev.Bytes(), tr.Bytes()
	}
	ev1, tr1 := dump()
	ev2, tr2 := dump()
	if !bytes.Equal(ev1, ev2) {
		t.Error("event dumps differ across identically seeded runs")
	}
	if !bytes.Equal(tr1, tr2) {
		t.Error("trace dumps differ across identically seeded runs")
	}
	if len(ev1) == 0 || len(tr1) == 0 {
		t.Error("empty telemetry dumps")
	}
}

// TestChaosTelemetryDeterminism guards crash injection and recovery.
func TestChaosTelemetryDeterminism(t *testing.T) {
	requireTelemetryDeterminism(t, func(t *testing.T) *world {
		w := newWorld(t, 4, 1, 2, false, 3)
		cfg := DefaultConfig()
		cfg.Seed = 99
		cfg.MaxFailures = 4
		w.crash(t, cfg, replay.Options{To: sim.Day})
		return w
	})
}

// TestOverloadTelemetryDeterminism guards the admission layer under a storm.
func TestOverloadTelemetryDeterminism(t *testing.T) {
	requireTelemetryDeterminism(t, func(t *testing.T) *world {
		w := overloadWorld(t, 12, 2, true)
		w.storm(t, stormConfig(), stormWindow())
		return w
	})
}

// TestGrayFailTelemetryDeterminism guards the whole gray ladder: hedging,
// cancellation, drain and reload.
func TestGrayFailTelemetryDeterminism(t *testing.T) {
	requireTelemetryDeterminism(t, func(t *testing.T) *world {
		gcfg := testGrayConfig()
		w := grayWorld(t, 12, 2, &gcfg)
		w.gray(t, nil, grayStormConfig(), grayWindow())
		return w
	})
}

// TestDomainFailTelemetryDeterminism guards spread acquisition, domain
// injection, triage polling, quarantine and re-spread.
func TestDomainFailTelemetryDeterminism(t *testing.T) {
	requireTelemetryDeterminism(t, func(t *testing.T) *world {
		w := domainWorld(t, 12, 1, 3, 3, true, true, 20)
		w.outage(t, nil, domainStormConfig(), domainWindow())
		return w
	})
}

// TestChaosSmoke is the bounded -race smoke target for make check: a small
// sharded run of two groups, so replay advances two clock domains at once
// under injection and recovery.
func TestChaosSmoke(t *testing.T) {
	w := newWorld(t, 8, 1, 2, true, 3)
	if n := len(w.dep.Plane().Domains()); n < 2 {
		t.Fatalf("%d clock domains, want ≥2", n)
	}
	cfg := DefaultConfig()
	cfg.Seed = 3
	cfg.MeanBetween = time.Hour
	cfg.MaxFailures = 3
	rep, out := w.crash(t, cfg, replay.Options{To: 12 * sim.Hour})
	applied := rep.AppliedFailures()
	if applied < 1 {
		t.Fatal("no failure applied")
	}
	if out.Recovered != applied || out.InFlight != 0 {
		t.Errorf("recovered %d of %d, %d in flight", out.Recovered, applied, out.InFlight)
	}
	if out.ActiveNodes != out.ExpectedActive || out.FailedNodes != 0 || out.RepairingNodes != 0 {
		t.Errorf("pool leak: %+v", out)
	}
}
