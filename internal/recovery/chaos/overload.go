package chaos

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/admission"
	"repro/internal/master"
	"repro/internal/queries"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/workload"
)

// OverloadConfig parameterizes a noisy-tenant storm: seeded aggressors in
// the deployment's largest group submit open-loop at Factor times their
// contracted rate.
type OverloadConfig struct {
	// Seed fixes the aggressor choice and nothing else — the storm itself
	// is a deterministic function of the aggressor's contract.
	Seed int64
	// Aggressors is how many members of the target group run hot
	// (default 1). Zero is the no-storm control, which measures the
	// group's intrinsic attainment.
	Aggressors int
	// Factor is the over-contract multiple the aggressors submit at
	// (default 5).
	Factor float64
	// Headroom scales the contracts derived from the aggressors' logs —
	// the same factor the admission config used, so the storm is measured
	// against the enforced contract (default 2).
	Headroom float64
	// MaxStorm bounds each aggressor's storm submissions (default 2000).
	MaxStorm int
}

// DefaultOverloadConfig returns a single 5×-over-contract aggressor.
func DefaultOverloadConfig() OverloadConfig {
	return OverloadConfig{
		Seed:       1,
		Aggressors: 1,
		Factor:     5,
		Headroom:   2,
		MaxStorm:   2000,
	}
}

// Storm is a seeded noisy-tenant storm against the deployment's largest
// group. As a replay.Injector it schedules each aggressor's open-loop
// submissions; the storm replaces the aggressors' own logged traffic, so
// the replay is handed only Logs. Storm submissions go through the group's
// admission controller whenever one is armed; typed rejections are
// tallied, never retried.
type Storm struct {
	// Group is the target group the storm hits.
	Group *master.DeployedGroup
	// Aggressors are the hot tenants' IDs.
	Aggressors []string
	// Submitted counts scheduled storm submissions; Admitted those that
	// reached an MPPDB; Throttled the typed 429s; Shed the typed 503s;
	// Errors routing failures.
	Submitted, Admitted, Throttled, Shed, Errors int

	cfg   OverloadConfig
	hot   map[string]bool
	heavy []stormQuery
}

// stormQuery is one aggressor's hammer: the heaviest query in its own log
// and the contracted rate the storm multiplies.
type stormQuery struct {
	tenant string
	class  *queries.Class
	// duration is the query's logged latency, before SLA slack.
	duration sim.Time
	rate     float64
}

// NewStorm targets the deployment's largest group and picks cfg.Aggressors
// of its members by seed. Each aggressor hammers the heaviest query in its
// own log — an open loop of long queries backlogs the aggressor's
// instance, so overflow traffic landing there shares with the whole
// pile-up — at Factor times the contract derived from that log, whether or
// not admission is armed, so bare and protected runs face the identical
// storm.
func NewStorm(dep *master.Deployment, cat *queries.Catalog, logs []*workload.TenantLog, cfg OverloadConfig) (*Storm, error) {
	if cfg.Aggressors < 0 || (cfg.Aggressors > 0 && (cfg.Factor <= 1 || cfg.MaxStorm < 1 || cfg.Headroom <= 0)) {
		return nil, fmt.Errorf("overload: Aggressors=%d Factor=%v MaxStorm=%d Headroom=%v",
			cfg.Aggressors, cfg.Factor, cfg.MaxStorm, cfg.Headroom)
	}
	target, err := LargestGroup(dep)
	if err != nil {
		return nil, err
	}
	if cfg.Aggressors > 0 && cfg.Aggressors >= len(target.Members) {
		return nil, fmt.Errorf("overload: %d aggressors need a group larger than %d",
			cfg.Aggressors, len(target.Members))
	}
	logByID := make(map[string]*workload.TenantLog, len(logs))
	for _, tl := range logs {
		logByID[tl.Tenant.ID] = tl
	}
	s := &Storm{Group: target, cfg: cfg, hot: make(map[string]bool, cfg.Aggressors)}
	perm := rand.New(rand.NewSource(cfg.Seed)).Perm(len(target.Members))
	for _, i := range perm[:cfg.Aggressors] {
		id := target.Members[i].ID
		tl := logByID[id]
		if tl == nil {
			return nil, fmt.Errorf("overload: aggressor %s has no log", id)
		}
		q := stormQuery{tenant: id, rate: admission.ContractFromLog(tl, cfg.Headroom).Rate}
		for _, ref := range tl.Sessions {
			for _, ev := range ref.Log.Events {
				if ev.Duration > q.duration {
					cl, ok := cat.ByID(ev.ClassID)
					if !ok {
						return nil, fmt.Errorf("overload: unknown class %s", ev.ClassID)
					}
					q.class, q.duration = cl, ev.Duration
				}
			}
		}
		if q.class == nil {
			return nil, fmt.Errorf("overload: aggressor %s logged no queries", id)
		}
		s.hot[id] = true
		s.Aggressors = append(s.Aggressors, id)
		s.heavy = append(s.heavy, q)
	}
	return s, nil
}

// Aggressor reports whether the tenant runs hot in this storm.
func (s *Storm) Aggressor(id string) bool { return s.hot[id] }

// Logs returns the logged traffic the replay keeps: the target's compliant
// members' logs, in member order.
func (s *Storm) Logs(logs []*workload.TenantLog) []*workload.TenantLog {
	var out []*workload.TenantLog
	for _, tl := range MemberLogs(logs, s.Group) {
		if !s.hot[tl.Tenant.ID] {
			out = append(out, tl)
		}
	}
	return out
}

// Inject schedules every aggressor's storm through the replay window, with
// the heaviest query's logged latency scaled by opts.SLASlack as its SLO
// target.
func (s *Storm) Inject(eng *sim.Engine, _ *master.Deployment, opts replay.Options) error {
	for _, q := range s.heavy {
		q, sla := q, opts.SLATarget(q.duration)
		interval := sim.Time(float64(sim.Second) / (s.cfg.Factor * q.rate))
		if interval < 1 {
			interval = 1
		}
		for i := 0; i < s.cfg.MaxStorm; i++ {
			at := opts.From + sim.Time(i)*interval
			if at >= opts.To {
				break
			}
			s.Submitted++
			eng.Schedule(at, func(sim.Time) { s.submit(q.tenant, q.class, sla) })
		}
	}
	return nil
}

// submit pushes one storm query through the group's admission controller
// (when armed) and router. Runs inside an engine callback.
func (s *Storm) submit(tenantID string, class *queries.Class, sla sim.Time) {
	if ac := s.Group.Admission; ac != nil {
		if err := ac.Admit(tenantID, sla, false); err != nil {
			var ce *admission.ContractExceededError
			if errors.As(err, &ce) {
				s.Throttled++
			} else {
				s.Shed++
			}
			return
		}
	}
	if _, err := s.Group.Router.SubmitWithTarget(tenantID, class, sla); err != nil {
		s.Errors++
		return
	}
	s.Admitted++
}

// Verify checks the storm was contained: every compliant member's SLA
// attainment held p, and — with admission armed — the storm was actually
// throttled or shed.
func (s *Storm) Verify(out *replay.Outcome, p float64) error {
	for _, tn := range s.Group.Members {
		if a := out.TenantAttainment(tn.ID); !s.hot[tn.ID] && a < p {
			return fmt.Errorf("overload: compliant tenant %s attainment %.6f < %.6f", tn.ID, a, p)
		}
	}
	if s.Group.Admission != nil && s.Throttled+s.Shed == 0 {
		return fmt.Errorf("overload: admission armed but the storm was never throttled or shed")
	}
	return nil
}

// MinCompliant returns the worst SLA attainment among the target's
// compliant members.
func (s *Storm) MinCompliant(out *replay.Outcome) float64 {
	worst := 1.0
	for _, tn := range s.Group.Members {
		if a := out.TenantAttainment(tn.ID); !s.hot[tn.ID] && a < worst {
			worst = a
		}
	}
	return worst
}
