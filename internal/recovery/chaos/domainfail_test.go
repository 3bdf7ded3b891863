package chaos

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/recovery"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/workload"
)

// domainWorld builds a shared-domain deployment on a multi-domain pool for
// correlated-failure storms. spread/triage arm the correlated-failure
// defenses; slackPct sizes the spare capacity (scarce by design, so a
// whole-domain loss forces the triage queue to form).
func domainWorld(t *testing.T, tenants, days, r, domains int, spread, triage bool, slackPct int) *world {
	t.Helper()
	return buildWorld(t, tenants, days, r, domains,
		func(used int) *cluster.Pool { return cluster.NewPoolDomains(used+(used*slackPct+99)/100, domains) },
		func([]*workload.TenantLog) master.Options {
			rcfg := recovery.DefaultConfig()
			opts := master.Options{Immediate: true, MonitorWindow: time.Hour, Recovery: &rcfg, NoSpread: !spread}
			if triage {
				tc := recovery.DefaultTriageConfig()
				opts.Triage = &tc
			}
			return opts
		})
}

func domainStormConfig() DomainFailConfig {
	cfg := DefaultDomainFailConfig()
	cfg.Seed = 7
	cfg.Duration = 2 * time.Hour
	return cfg
}

// domainWindow replays half a day; Table 5.1 reloads of the bigger groups
// run for hours, and triage queues drain only after the domain returns.
func domainWindow() replay.Options {
	return replay.Options{To: 12 * sim.Hour, SLASlack: 2.5, DrainSlack: 48 * time.Hour}
}

// outage replays every tenant under a domain-outage schedule — sched, or
// one built from cfg when sched is nil — composed after opts' injectors.
func (w *world) outage(t *testing.T, sched []DomainOutage, cfg DomainFailConfig, opts replay.Options) (*Outages, *replay.Report, replay.Outcome) {
	t.Helper()
	if sched == nil {
		var err error
		if sched, err = BuildOutages(w.dep.Pool().Domains(), opts.From, opts.To, cfg); err != nil {
			t.Fatal(err)
		}
	}
	o := &Outages{Schedule: sched}
	opts.Injectors = append(opts.Injectors, o)
	rep, out, err := w.replay(MemberLogs(w.logs, w.dep.Groups()...), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Errs) > 0 {
		t.Fatalf("injection errors: %v", o.Errs)
	}
	return o, rep, out
}

// TestDomainSmoke is the bounded CI gate (make fault-smoke): a short seeded
// whole-domain outage against a protected deployment (spread placement +
// scarcity triage) must be absorbed — zero dropped queries, every recovery
// and triage claim drained, pool leak-free.
func TestDomainSmoke(t *testing.T) {
	w := domainWorld(t, 12, 1, 3, 3, true, true, 20)
	o, rep, out := w.outage(t, nil, domainStormConfig(), domainWindow())
	if err := out.Verify(); err != nil {
		t.Fatalf("domain smoke: %v (%+v)", err, out)
	}
	if w.dep.Triage() == nil {
		t.Fatal("smoke deployment has no triage allocator")
	}
	if o.Casualties == 0 {
		t.Fatalf("outages killed no nodes: %+v", o.Schedule)
	}
	if o.Quarantines == 0 {
		t.Error("no fully covered instance was quarantined — spread placement should put whole instances in one domain")
	}
	if out.Lifecycles == 0 || out.Recovered != out.Lifecycles {
		t.Errorf("recovered %d of %d lifecycles", out.Recovered, out.Lifecycles)
	}
	met, missed := slaTotals(w)
	if got, want := int(met+missed), rep.Submitted-rep.SubmitErrors; got != want {
		t.Errorf("SLA report counts %d queries, want %d", got, want)
	}
	enq, granted := w.dep.Triage().Stats()
	t.Logf("casualties %d, quarantines %d, lifecycles %d (triaged %d), triage %d/%d, attainment %.4f",
		o.Casualties, o.Quarantines, out.Lifecycles, out.Triaged, enq, granted, out.Attainment)
}

// TestDomainFailRolling marches outages through consecutive domains with
// overlap, so restoration of one domain races the loss of the next. The
// protected deployment must still absorb the storm.
func TestDomainFailRolling(t *testing.T) {
	w := domainWorld(t, 12, 1, 3, 3, true, true, 25)
	cfg := domainStormConfig()
	cfg.Rolling = true
	cfg.Outages = 3
	o, _, out := w.outage(t, nil, cfg, replay.Options{To: 18 * sim.Hour, SLASlack: 2.5, DrainSlack: 60 * time.Hour})
	if len(o.Schedule) != 3 {
		t.Fatalf("rolling schedule has %d outages, want 3", len(o.Schedule))
	}
	doms := map[int]bool{}
	for _, d := range o.Schedule {
		doms[d.Domain] = true
	}
	if len(doms) != 3 {
		t.Errorf("rolling storm hit %d distinct domains, want 3: %+v", len(doms), o.Schedule)
	}
	if err := out.Verify(); err != nil {
		t.Fatalf("rolling storm: %v (%+v)", err, out)
	}
}

// TestDomainFailDuringGrayDrain composes the fail-slow and correlated
// failure classes: a stuck fail-slow episode overlaps a whole-domain
// outage, so the gray ladder's drain-and-replace races the correlated
// casualty rush for the same scarce pool. Both controllers share the triage
// without tripping over each other.
func TestDomainFailDuringGrayDrain(t *testing.T) {
	w := domainWorld(t, 12, 1, 3, 3, true, true, 25)
	target, err := LargestGroup(w.dep)
	if err != nil {
		t.Fatal(err)
	}
	opts := domainWindow()
	opts.DrainSlack = 72 * time.Hour
	opts.Injectors = []replay.Injector{Slowdowns{{
		At: sim.Hour, Duration: 4 * time.Hour,
		Group: target.Plan.ID, Instance: 0,
		Profile: ProfileStuck, Factor: 0.25,
	}}}
	o, _, out := w.outage(t, []DomainOutage{{At: 2 * sim.Hour, Duration: 2 * time.Hour, Domain: 0}},
		domainStormConfig(), opts)
	if err := out.Verify(); err != nil {
		t.Fatalf("outage during gray episode: %v (%+v)", err, out)
	}
	if o.Casualties == 0 {
		t.Fatal("domain outage killed no nodes")
	}
}

// TestDomainRespread forces a collapse: a two-domain pool, a spread group,
// and a long outage of one domain. Mid-outage replacements can only come
// from the surviving domain, so the group collapses onto it; after the
// domain returns, the heartbeat re-spread must live-migrate a replica back
// and end the run spanning both domains again.
func TestDomainRespread(t *testing.T) {
	w := domainWorld(t, 6, 1, 2, 2, true, true, 60)
	opts := domainWindow()
	opts.DrainSlack = 96 * time.Hour
	_, _, out := w.outage(t, []DomainOutage{{At: 2 * sim.Hour, Duration: 4 * time.Hour, Domain: 1}},
		domainStormConfig(), opts)
	if err := out.Verify(); err != nil {
		t.Fatalf("respread run: %v (%+v)", err, out)
	}
	if out.Respreads == 0 {
		t.Fatalf("no re-spread cutover happened (collapsed groups at end: %d)", out.Collapsed)
	}
	if out.Collapsed != 0 {
		t.Errorf("%d groups still collapsed onto one domain after re-spread", out.Collapsed)
	}
}

// TestDomainOutageValidation rejects malformed schedules, single-domain
// pools, and sharded deployments before any injection runs.
func TestDomainOutageValidation(t *testing.T) {
	schedules := []struct {
		name  string
		sched []DomainOutage
		ok    bool
	}{
		{"out-of-range domain", []DomainOutage{{At: sim.Hour, Duration: time.Hour, Domain: 5}}, false},
		{"zero duration", []DomainOutage{{At: sim.Hour, Duration: 0, Domain: 0}}, false},
		{"outage outside the window", []DomainOutage{{At: 2 * sim.Day, Duration: time.Hour, Domain: 0}}, false},
		{"same-domain overlap", []DomainOutage{
			{At: sim.Hour, Duration: 2 * time.Hour, Domain: 0},
			{At: 2 * sim.Hour, Duration: time.Hour, Domain: 0},
		}, false},
		{"cross-domain overlap", []DomainOutage{
			{At: sim.Hour, Duration: 2 * time.Hour, Domain: 0},
			{At: 2 * sim.Hour, Duration: time.Hour, Domain: 1},
		}, true},
	}
	for _, tc := range schedules {
		if err := ValidateOutages(tc.sched, 3, 0, sim.Day); (err == nil) != tc.ok {
			t.Errorf("%s: ValidateOutages = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}

	// Single-domain pools cannot host a correlated-failure storm, and a
	// sharded deployment of several groups has no one engine to inject on.
	worlds := []struct {
		name string
		w    *world
	}{
		{"single-domain pool", newWorld(t, 6, 1, 2, false, 2)},
		{"sharded deployment", shardedWorld(t)},
	}
	window := replay.Options{To: sim.Hour}
	for _, tc := range worlds {
		window.Injectors = []replay.Injector{&Outages{Schedule: []DomainOutage{}}}
		if _, _, err := tc.w.replay(tc.w.logs, window); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}
