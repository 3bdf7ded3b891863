package chaos

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/recovery"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/workload"
)

// testGrayConfig tunes the detector for the test worlds' sparse traffic: a
// short sample window so the profile mean tracks an onset within a few
// completions, and drain patience longer than any injected episode so
// transient gray resolves by hedging while genuinely stuck instances (the
// soak test shortens DrainAfter) still reach the drain rung.
func testGrayConfig() recovery.GrayConfig {
	cfg := recovery.DefaultGrayConfig()
	cfg.Window = 16
	cfg.MinSamples = 4
	cfg.ConfirmBeats = 2
	cfg.DrainAfter = 4 * time.Hour
	return cfg
}

// grayWorld builds a shared-domain deployment for fail-slow storms. A non-nil
// gray config arms the per-group detector (which auto-arms the crash
// controller its drain rung executes through); the pool is doubled so
// drain-and-replace has spares.
func grayWorld(t *testing.T, tenants, days int, gray *recovery.GrayConfig) *world {
	t.Helper()
	return buildWorld(t, tenants, days, 2, 0,
		func(used int) *cluster.Pool { return cluster.NewPool(2 * used) },
		func([]*workload.TenantLog) master.Options {
			return master.Options{Immediate: true, MonitorWindow: time.Hour, Gray: gray}
		})
}

func grayStormConfig() GrayFailConfig {
	cfg := DefaultGrayFailConfig()
	cfg.Seed = 11
	return cfg
}

// grayWindow replays half a day; drain-and-replace pays the Table 5.1
// reload of the group's data share.
func grayWindow() replay.Options {
	return replay.Options{To: 12 * sim.Hour, SLASlack: 2.5, DrainSlack: 48 * time.Hour}
}

// grayRun is a fail-slow storm's outcome on the largest group.
type grayRun struct {
	target *master.DeployedGroup
	rep    *replay.Report
	out    replay.Outcome
	// confirmed and drained count the detector episodes reaching each
	// rung; hedged counts the router's hedged queries.
	confirmed, drained int
	hedged, hedgeWins  int64
}

// gray replays the largest group's members under a fail-slow schedule —
// sched, or one built from cfg when sched is nil.
func (w *world) gray(t *testing.T, sched Slowdowns, cfg GrayFailConfig, opts replay.Options) grayRun {
	t.Helper()
	target, err := LargestGroup(w.dep)
	if err != nil {
		t.Fatal(err)
	}
	if sched == nil {
		if sched, err = BuildSlowdowns(target, opts.From, opts.To, cfg); err != nil {
			t.Fatal(err)
		}
	}
	opts.Injectors = []replay.Injector{sched}
	r := grayRun{target: target}
	if r.rep, r.out, err = w.replay(MemberLogs(w.logs, target), opts); err != nil {
		t.Fatal(err)
	}
	if target.Gray != nil {
		for _, ev := range target.Gray.Events() {
			if ev.Confirmed > 0 {
				r.confirmed++
			}
			if ev.Drained > 0 {
				r.drained++
			}
		}
	}
	r.hedged, r.hedgeWins = target.Router.HedgeStats()
	return r
}

// slaTotals sums met/missed over the deployment's per-tenant SLA report.
func slaTotals(w *world) (met, missed int64) {
	for _, tn := range w.dep.Telemetry().SLA.Report() {
		met += tn.Met
		missed += tn.Missed
	}
	return met, missed
}

// TestGrayFailLadder is the acceptance run: the identical seeded fail-slow
// storm against three fresh deployments — no faults at all, bare, and with
// the detector armed. The bare run has no ladder; the protected run must
// confirm episodes, hedge queries, finish every drain, leave the pool
// leak-free, and restore attainment to within a point of the no-fault
// baseline. The SLA accounting must balance exactly — hedged duplicates
// never double-count.
func TestGrayFailLadder(t *testing.T) {
	base := grayWorld(t, 12, 2, nil)
	baseRun := base.gray(t, Slowdowns{}, grayStormConfig(), grayWindow()) // the no-fault arm
	if err := baseRun.out.Verify(); err != nil {
		t.Fatalf("no-fault baseline: %v", err)
	}

	bare := grayWorld(t, 12, 2, nil)
	bareRun := bare.gray(t, nil, grayStormConfig(), grayWindow())
	if bareRun.target.Gray != nil {
		t.Fatal("bare run unexpectedly has the detector armed")
	}
	if bareRun.hedged != 0 {
		t.Fatalf("bare run shows detector activity: %d hedged", bareRun.hedged)
	}
	if err := bareRun.out.Verify(); err != nil {
		t.Fatalf("bare run: %v", err)
	}

	gcfg := testGrayConfig()
	prot := grayWorld(t, 12, 2, &gcfg)
	protRun := prot.gray(t, nil, grayStormConfig(), grayWindow())
	if protRun.target.Gray == nil {
		t.Fatal("protected run has no detector")
	}
	if err := protRun.out.Verify(); err != nil {
		t.Fatalf("protected run: %v (events %+v)", err, protRun.target.Gray.Events())
	}
	if protRun.confirmed == 0 {
		t.Fatal("detector armed but never confirmed a gray instance")
	}
	if protRun.hedged == 0 {
		t.Fatal("protected run never hedged a query")
	}
	if protRun.out.Attainment < baseRun.out.Attainment-0.01 {
		t.Errorf("protected attainment %.4f more than a point below no-fault %.4f (bare %.4f)",
			protRun.out.Attainment, baseRun.out.Attainment, bareRun.out.Attainment)
	}
	// Hedge accounting: exactly one SLA-counted record per successful submit,
	// end to end through the monitor into the per-tenant report.
	met, missed := slaTotals(prot)
	if got, want := int(met+missed), protRun.rep.Submitted-protRun.rep.SubmitErrors; got != want {
		t.Errorf("SLA report counts %d queries, want %d (submitted %d, errors %d) — hedges double-counted?",
			got, want, protRun.rep.Submitted, protRun.rep.SubmitErrors)
	}
	t.Logf("attainment no-fault %.4f / bare %.4f / protected %.4f; episodes confirmed %d, drained %d; hedged %d (%d peer wins)",
		baseRun.out.Attainment, bareRun.out.Attainment, protRun.out.Attainment,
		protRun.confirmed, protRun.drained, protRun.hedged, protRun.hedgeWins)
}

// TestGraySmoke is the bounded CI gate (make fault-smoke): a short seeded
// storm against a protected deployment must be confirmed and contained.
func TestGraySmoke(t *testing.T) {
	cfg := grayStormConfig()
	cfg.Episodes = 2
	gcfg := testGrayConfig()
	w := grayWorld(t, 12, 1, &gcfg)
	r := w.gray(t, nil, cfg, replay.Options{To: 6 * sim.Hour, SLASlack: 2.5, DrainSlack: 36 * time.Hour})
	if err := r.out.Verify(); err != nil {
		t.Fatal(err)
	}
	if r.confirmed == 0 {
		t.Fatal("detector armed but never confirmed a gray instance")
	}
	if r.hedged == 0 {
		t.Fatalf("smoke storm never hedged: %+v", r.out)
	}
	met, missed := slaTotals(w)
	if got, want := int(met+missed), r.rep.Submitted-r.rep.SubmitErrors; got != want {
		t.Fatalf("SLA report counts %d queries, want %d", got, want)
	}
}

// TestGrayDoubleFailureSoak overlaps a fail-slow episode with hard crashes:
// while instance 0 of the target group is stuck-at-slow (and the ladder
// drains it), instance 1 takes a crash, then a second one after the first
// reload lands. The ladder and the crash controller share the pool and the
// group without tripping over each other: every recovery completes, the
// pool ends leak-free, and no instance is left slow or quarantined.
func TestGrayDoubleFailureSoak(t *testing.T) {
	gcfg := testGrayConfig()
	gcfg.DrainAfter = 30 * time.Minute // eager: the stuck episode must reach the drain rung
	w := grayWorld(t, 12, 2, &gcfg)
	target, err := LargestGroup(w.dep)
	if err != nil {
		t.Fatal(err)
	}
	if len(target.Instances) < 2 {
		t.Fatalf("target group has %d instances, need 2 for a double failure", len(target.Instances))
	}

	crash := func(at sim.Time, inst interface {
		FailNode() error
		ID() string
	}) {
		w.eng.Schedule(at, func(sim.Time) {
			if err := inst.FailNode(); err != nil {
				t.Errorf("FailNode at %v: %v", at, err)
				return
			}
			if _, err := w.dep.Pool().FailAny(inst.ID()); err != nil {
				t.Errorf("FailAny at %v: %v", at, err)
			}
		})
	}
	// Crash instance 1 mid-episode — while the ladder is draining its stuck
	// peer — and again after the first reload has finished (a two-node
	// instance cannot lose its second node mid-recovery).
	crash(90*sim.Minute, target.Instances[1])
	crash(30*sim.Hour, target.Instances[1])

	opts := grayWindow()
	opts.DrainSlack = 72 * time.Hour
	r := w.gray(t, Slowdowns{{
		At: sim.Hour, Duration: 3 * time.Hour,
		Group: target.Plan.ID, Instance: 0,
		Profile: ProfileStuck, Factor: 0.25,
	}}, grayStormConfig(), opts)
	if err := r.out.Verify(); err != nil {
		t.Fatalf("double-failure soak: %v (gray events %+v)", err, target.Gray.Events())
	}
	if r.drained == 0 {
		t.Errorf("stuck instance never reached the drain rung: %+v", target.Gray.Events())
	}
	if target.Recovery == nil {
		t.Fatal("protected group has no crash controller")
	}
	evs := target.Recovery.Events()
	if len(evs) < 3 {
		t.Fatalf("%d recovery events, want >= 3 (two crash lifecycles + gray drain): %+v", len(evs), evs)
	}
	for _, ev := range evs {
		if !ev.Recovered() {
			t.Errorf("recovery of %s (detected %v) never completed", ev.MPPDB, ev.Detected)
		}
	}
}

// TestSlowdownScheduleValidation: every malformed schedule is rejected with
// a typed *ScheduleError carrying a stable reason, before anything runs.
func TestSlowdownScheduleValidation(t *testing.T) {
	from, to := sim.Time(0), 12*sim.Hour
	ok := Slowdown{At: sim.Hour, Duration: time.Hour, Group: "TG-0000",
		Profile: ProfileStuck, Factor: 0.3}
	cases := []struct {
		name   string
		reason string
		mut    func(*Slowdown)
	}{
		{"zero duration", "zero_duration", func(s *Slowdown) { s.Duration = 0 }},
		{"negative duration", "zero_duration", func(s *Slowdown) { s.Duration = -time.Hour }},
		{"starts before window", "out_of_horizon", func(s *Slowdown) { s.At = -sim.Hour }},
		{"ends after window", "out_of_horizon", func(s *Slowdown) { s.At = to - sim.Minute }},
		{"factor zero", "bad_factor", func(s *Slowdown) { s.Factor = 0 }},
		{"factor at speedup", "bad_factor", func(s *Slowdown) { s.Factor = 1.2 }},
		{"unknown profile", "bad_profile", func(s *Slowdown) { s.Profile = "meltdown" }},
		{"gradual without steps", "bad_steps", func(s *Slowdown) { s.Profile = ProfileGradual; s.Steps = 0 }},
		{"flapping without period", "bad_period", func(s *Slowdown) { s.Profile = ProfileFlapping; s.Period = 0 }},
		{"flapping period too long", "bad_period", func(s *Slowdown) {
			s.Profile = ProfileFlapping
			s.Period = 2 * time.Hour
		}},
	}
	for _, tc := range cases {
		s := ok
		tc.mut(&s)
		err := ValidateSlowdowns([]Slowdown{s}, from, to)
		var se *ScheduleError
		if !errors.As(err, &se) {
			t.Errorf("%s: error %v, want *ScheduleError", tc.name, err)
			continue
		}
		if se.Reason != tc.reason {
			t.Errorf("%s: reason %q, want %q", tc.name, se.Reason, tc.reason)
		}
		if se.Index != 0 {
			t.Errorf("%s: index %d, want 0", tc.name, se.Index)
		}
	}

	// Overlap on the same (group, instance) is rejected; the same window on
	// a different instance is fine.
	second := ok
	second.At = ok.At + 30*sim.Minute
	err := ValidateSlowdowns([]Slowdown{ok, second}, from, to)
	var se *ScheduleError
	if !errors.As(err, &se) || se.Reason != "overlap" {
		t.Errorf("overlapping schedule: %v, want overlap ScheduleError", err)
	}
	second.Instance = 1
	if err := ValidateSlowdowns([]Slowdown{ok, second}, from, to); err != nil {
		t.Errorf("disjoint-instance schedule rejected: %v", err)
	}
	if err := ValidateSlowdowns([]Slowdown{ok}, from, to); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

// TestGrayFailValidation rejects malformed configs, bad targets, and sharded
// deployments before any injection runs.
func TestGrayFailValidation(t *testing.T) {
	sharded := shardedWorld(t)
	w := grayWorld(t, 6, 1, nil)
	gid := w.dep.Groups()[0].Plan.ID
	window := replay.Options{To: sim.Hour}
	factorOne := DefaultGrayFailConfig()
	factorOne.Factor = 1
	stuck := func(group string, instance int) Slowdowns {
		return Slowdowns{{At: 0, Duration: time.Hour, Group: group, Instance: instance,
			Profile: ProfileStuck, Factor: 0.3}}
	}
	cases := []struct {
		name string
		w    *world
		// sched is the explicit schedule; nil builds one from cfg.
		sched  Slowdowns
		cfg    GrayFailConfig
		opts   replay.Options
		reason string // the *ScheduleError reason expected, if any
	}{
		{name: "sharded deployment", w: sharded, cfg: DefaultGrayFailConfig(), opts: window},
		{name: "empty window", w: w, cfg: DefaultGrayFailConfig()},
		{name: "Factor outside (0.05,0.95)", w: w, cfg: factorOne, opts: window},
		// Unresolvable targets surface as typed schedule errors at injection.
		{name: "unknown group", w: w, sched: stuck("TG-NOPE", 0), opts: window, reason: "bad_target"},
		{name: "out-of-range instance", w: w, sched: stuck(gid, 99), opts: window, reason: "bad_target"},
	}
	for _, tc := range cases {
		target, err := LargestGroup(tc.w.dep)
		sched := tc.sched
		if err == nil && sched == nil {
			sched, err = BuildSlowdowns(target, tc.opts.From, tc.opts.To, tc.cfg)
		}
		if err == nil {
			opts := tc.opts
			opts.Injectors = []replay.Injector{sched}
			_, _, err = tc.w.replay(MemberLogs(tc.w.logs, target), opts)
		}
		if err == nil {
			t.Errorf("%s accepted", tc.name)
			continue
		}
		var se *ScheduleError
		if tc.reason != "" && (!errors.As(err, &se) || se.Reason != tc.reason) {
			t.Errorf("%s: %v, want %s ScheduleError", tc.name, err, tc.reason)
		}
	}
}
