package chaos

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// overloadWorld builds a shared-domain deployment for storm runs. admit
// arms per-group admission with contracts derived from the logs; the
// monitor window and brownout tick are tightened so the protection loop
// reacts within the test's short horizon.
func overloadWorld(t *testing.T, tenants, days int, admit bool) *world {
	t.Helper()
	return buildWorld(t, tenants, days, 2, 0, cluster.NewPool, func(logs []*workload.TenantLog) master.Options {
		opts := master.Options{Immediate: true, MonitorWindow: time.Hour}
		if admit {
			cfg := admission.DefaultConfig()
			cfg.Contracts = admission.ContractsFromLogs(logs, cfg.Headroom)
			cfg.TickInterval = 5 * time.Second
			opts.Admission = &cfg
		}
		return opts
	})
}

func stormConfig() OverloadConfig {
	cfg := DefaultOverloadConfig()
	cfg.Seed = 11
	return cfg
}

func stormWindow() replay.Options {
	return replay.Options{To: 12 * sim.Hour, SLASlack: 2.5, DrainSlack: 2 * time.Hour}
}

// storm replays the target group's compliant members under the seeded
// storm, through admission when the group has it armed.
func (w *world) storm(t *testing.T, cfg OverloadConfig, opts replay.Options) (*Storm, *replay.Report, replay.Outcome) {
	t.Helper()
	s, err := NewStorm(w.dep, w.cat, w.logs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts.Injectors = []replay.Injector{s}
	opts.Admit = s.Group.Admission != nil
	rep, out, err := w.replay(s.Logs(w.logs), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, rep, out
}

// TestOverloadProtection is the acceptance run: the identical seeded storm
// against two fresh deployments. Without admission the aggressor's open
// loop burns a compliant co-tenant's SLA below the plan's P; with admission
// armed the aggressor is throttled with typed 429s and every compliant
// member's attainment holds the guarantee.
func TestOverloadProtection(t *testing.T) {
	base := overloadWorld(t, 12, 2, false)
	baseStorm, _, baseOut := base.storm(t, stormConfig(), stormWindow())
	p := base.plan.Config.P
	if baseStorm.Group.Admission != nil {
		t.Fatal("baseline unexpectedly has admission armed")
	}
	if m := baseStorm.MinCompliant(&baseOut); m >= p {
		t.Fatalf("baseline storm did no damage: min compliant attainment %.6f >= %.6f", m, p)
	}

	prot := overloadWorld(t, 12, 2, true)
	protStorm, _, protOut := prot.storm(t, stormConfig(), stormWindow())
	if protStorm.Group.Admission == nil {
		t.Fatal("protected run has no admission")
	}
	if err := protStorm.Verify(&protOut, p); err != nil {
		t.Fatalf("protected run: %v (SLO %+v)", err, protOut.SLO)
	}
	if protStorm.Throttled == 0 {
		t.Fatalf("aggressor never saw a typed 429: %+v", protStorm)
	}
	hub := prot.dep.Telemetry()
	if n := countEvents(hub, telemetry.EventContractExceeded); n == 0 {
		t.Fatal("no contract_exceeded events published")
	}
	// The throttle counters must be visible in the registry.
	var buf bytes.Buffer
	if err := hub.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("thrifty_admission_throttled_total")) {
		t.Fatal("metrics lack thrifty_admission_throttled_total")
	}
	t.Logf("baseline min compliant attainment %.6f; protected %.6f, storm %d submitted / %d admitted / %d throttled / %d shed",
		baseStorm.MinCompliant(&baseOut), protStorm.MinCompliant(&protOut),
		protStorm.Submitted, protStorm.Admitted, protStorm.Throttled, protStorm.Shed)
}

// TestOverloadSmoke is the bounded CI gate (make fault-smoke): a short
// seeded storm against a protected deployment must be contained.
func TestOverloadSmoke(t *testing.T) {
	cfg := stormConfig()
	cfg.MaxStorm = 500
	w := overloadWorld(t, 8, 1, true)
	s, _, out := w.storm(t, cfg, replay.Options{To: 4 * sim.Hour, SLASlack: 2.5, DrainSlack: time.Hour})
	if err := s.Verify(&out, w.plan.Config.P); err != nil {
		t.Fatal(err)
	}
	if s.Throttled == 0 {
		t.Fatalf("smoke storm never throttled: %+v", s)
	}
}

// TestOverloadValidation rejects malformed configs and sharded deployments
// before any submission runs.
func TestOverloadValidation(t *testing.T) {
	sharded := shardedWorld(t)
	shared := overloadWorld(t, 6, 1, false)
	window := replay.Options{To: sim.Hour}
	emptyWindow := replay.Options{}
	factorOne := DefaultOverloadConfig()
	factorOne.Factor = 1
	tooMany := DefaultOverloadConfig()
	tooMany.Aggressors = 100
	cases := []struct {
		name string
		w    *world
		cfg  OverloadConfig
		opts replay.Options
	}{
		{"sharded deployment", sharded, DefaultOverloadConfig(), window},
		{"empty window", shared, DefaultOverloadConfig(), emptyWindow},
		{"Factor <= 1", shared, factorOne, window},
		{"oversized aggressor count", shared, tooMany, window},
	}
	for _, tc := range cases {
		s, err := NewStorm(tc.w.dep, tc.w.cat, tc.w.logs, tc.cfg)
		if err == nil {
			opts := tc.opts
			opts.Injectors = []replay.Injector{s}
			_, _, err = tc.w.replay(s.Logs(tc.w.logs), opts)
		}
		if err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}
