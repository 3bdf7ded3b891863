// Package thrifty is the public API of Thrifty, a reproduction of
// "Parallel Analytics as a Service" (SIGMOD 2013): massively parallel
// processing database-as-a-service (MPPDBaaS) with tenant consolidation.
//
// Thrifty consolidates thousands of MPPDB tenants onto a shared cluster
// while guaranteeing, for P% of time, that each tenant's queries run as fast
// as on its own dedicated machines. The pipeline is:
//
//  1. GenerateWorkload — build the §7.1 testbed: per-size-class session
//     logs and composed multi-day tenant activity logs;
//  2. PlanDeployment — run the Deployment Advisor: tenant grouping
//     (the LIVBPwFC optimization), cluster design, and tenant placement;
//  3. Deploy — execute the plan on a simulated cluster, producing live
//     MPPDB instances with per-group query routers and activity monitors;
//  4. Replay / Serve — drive the deployment with logged or interactive
//     queries, optionally with lightweight elastic scaling armed.
//
// Everything is deterministic from the seeds in the configs. The underlying
// packages (internal/...) expose the individual subsystems; this package
// wires the common paths.
package thrifty

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/admission"
	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/online"
	"repro/internal/queries"
	"repro/internal/recovery"
	"repro/internal/replay"
	"repro/internal/scaling"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// WorkloadConfig parameterizes testbed generation (§7.1).
type WorkloadConfig struct {
	// Tenants is the population size T (paper default: 5000).
	Tenants int
	// Theta is the Zipf skew of tenant sizes (default 0.8).
	Theta float64
	// Sizes are the requestable node counts (default 2/4/8/16/32).
	Sizes []int
	// Days is the log horizon (default 30).
	Days int
	// SessionsPerClass sizes the step-1 library (default 100).
	SessionsPerClass int
	// Variant selects the Fig 7.6 high-activity modifications.
	Variant workload.HighActivityVariant
	// Seed drives all randomness.
	Seed int64
}

// DefaultWorkloadConfig returns the paper's Table 7.1 defaults.
func DefaultWorkloadConfig(seed int64) WorkloadConfig {
	return WorkloadConfig{
		Tenants:          5000,
		Theta:            0.8,
		Sizes:            append([]int(nil), tenant.DefaultSizes...),
		Days:             30,
		SessionsPerClass: 100,
		Seed:             seed,
	}
}

// Workload is a generated multi-tenant testbed.
type Workload struct {
	Catalog *queries.Catalog
	Library *workload.Library
	Logs    []*workload.TenantLog
	Horizon sim.Time
}

// Tenants returns the tenant index of the workload.
func (w *Workload) Tenants() map[string]*tenant.Tenant {
	out := make(map[string]*tenant.Tenant, len(w.Logs))
	for _, tl := range w.Logs {
		out[tl.Tenant.ID] = tl.Tenant
	}
	return out
}

// GenerateWorkload runs both steps of the paper's log generation.
func GenerateWorkload(cfg WorkloadConfig) (*Workload, error) {
	if cfg.Tenants < 1 {
		return nil, fmt.Errorf("thrifty: %d tenants", cfg.Tenants)
	}
	if cfg.Theta == 0 {
		cfg.Theta = 0.8
	}
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = append([]int(nil), tenant.DefaultSizes...)
	}
	if cfg.Days == 0 {
		cfg.Days = 30
	}
	if cfg.SessionsPerClass == 0 {
		cfg.SessionsPerClass = 100
	}
	cat := queries.Default()
	lib, err := workload.BuildLibrary(cat, cfg.Sizes, cfg.SessionsPerClass, cfg.Seed)
	if err != nil {
		return nil, err
	}
	logs, err := workload.ComposeVariant(lib, cat, cfg.Tenants, cfg.Theta, cfg.Sizes,
		cfg.Variant, cfg.Days, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	return &Workload{
		Catalog: cat,
		Library: lib,
		Logs:    logs,
		Horizon: sim.Time(cfg.Days) * sim.Day,
	}, nil
}

// PlanConfig re-exports the Deployment Advisor configuration.
type PlanConfig = advisor.Config

// DefaultPlanConfig returns R=3, P=99.9%, E=10 s with the 2-step solver.
func DefaultPlanConfig() PlanConfig { return advisor.DefaultConfig() }

// Plan re-exports the deployment plan.
type Plan = advisor.Plan

// PlanDeployment computes cluster design and tenant placement for the
// workload.
func PlanDeployment(w *Workload, cfg PlanConfig) (*Plan, error) {
	adv, err := advisor.New(cfg)
	if err != nil {
		return nil, err
	}
	return adv.Plan(w.Logs, w.Horizon)
}

// ReconsolidationReport re-exports the advisor's cycle report.
type ReconsolidationReport = advisor.ReconsolidationReport

// Reconsolidate runs one (re)-consolidation cycle (§3c, §5.1): groups
// untouched by churn keep their placement; members of flagged groups,
// groups with departed tenants, and new tenants are re-grouped. The
// workload w carries the *current* population and fresh history.
func Reconsolidate(w *Workload, prev *Plan, cfg PlanConfig, flaggedGroups []string) (*Plan, *ReconsolidationReport, error) {
	adv, err := advisor.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	return adv.Reconsolidate(advisor.ReconsolidationInput{
		Previous:      prev,
		Logs:          w.Logs,
		FlaggedGroups: flaggedGroups,
	}, w.Horizon)
}

// System is a deployed MPPDBaaS: the engine, node pool, and live deployment.
type System struct {
	Engine     *sim.Engine
	Pool       *cluster.Pool
	Deployment *master.Deployment
	Plan       *Plan
	Workload   *Workload
	// Online is the continuous re-consolidation loop, nil until EnableOnline.
	Online *OnlineController
}

// DeployOptions controls plan execution.
type DeployOptions struct {
	// SpareNodes is how many nodes beyond the plan the pool holds (for
	// elastic scaling and node replacement).
	SpareNodes int
	// Immediate skips provisioning delays.
	Immediate bool
	// ParallelLoad enables the MPPDB parallel-loading option.
	ParallelLoad bool
	// MonitorWindow is the RT-TTP window (default 24 h).
	MonitorWindow time.Duration
	// Sharded gives each tenant-group a private engine and clock domain:
	// the service path handles submits to different groups fully in
	// parallel, and Replay advances groups concurrently with the same
	// records and samples a shared deployment of the seed gives. Leave
	// false for fault injectors and the online loop, which need one
	// domain, and wherever the cross-group order of telemetry events must
	// repeat run to run.
	Sharded bool
	// Recovery arms an autonomous recovery controller per tenant-group
	// (§4.4): a heartbeat failure detector plus replacement acquisition,
	// Table 5.1 reload modeling, and repair. Nil leaves groups bare — the
	// service path typically sets it, replay arms controllers itself when
	// failures are injected.
	Recovery *RecoveryConfig
	// Admission arms an overload-protection controller per tenant-group:
	// per-tenant contract enforcement (token buckets derived from the
	// workload's per-tenant arrival model), a bounded admission queue with
	// deadline-aware shedding, and a brownout loop watching the group's
	// live RT-TTP and recovery state. When the config carries no explicit
	// Contracts, Deploy derives them from the workload's logs with the
	// config's Headroom. Nil leaves groups ungoverned (byte-identical
	// replay).
	Admission *AdmissionConfig
	// Gray arms a fail-slow (gray-failure) detector per tenant-group:
	// peer-relative completion-latency anomaly detection driving a hedge →
	// drain-and-replace response ladder. Setting it with a nil Recovery
	// auto-arms the default recovery controller — the drain rung replaces
	// the slow node through it. Nil disables detection (byte-identical
	// replay).
	Gray *GrayConfig
	// Domains splits the pool into that many failure domains (racks/zones
	// that fail together). Values ≤1 keep the classic single-domain pool —
	// the layout every byte-deterministic replay pins.
	Domains int
	// NoSpread keeps the pre-domain first-fit placement even on a
	// multi-domain pool (an instance may land entirely in one rack). Only
	// meaningful with Domains > 1; used for A/B-ing correlated-failure
	// exposure.
	NoSpread bool
	// Triage arms the cluster-wide scarcity triage allocator: when the pool
	// runs dry, exhausted recovery lifecycles queue a claim ranked by
	// SLA-at-risk (sliding RT-TTP deficit × tenant count) instead of
	// fighting with uncoordinated backoff. Requires Recovery (or Gray,
	// which auto-arms it). Nil keeps classic per-group retry cycles.
	Triage *TriageConfig
	// Sharing enables shared-work execution on every MPPDB instance:
	// concurrent same-class queries merge into one shared scan
	// (mppdb.SetSharing), and the admission controller reads effective,
	// batch-collapsed concurrency. Pair with PlanConfig.Sharing so the plan
	// packs for the capacity the executor actually delivers. Strictly
	// opt-in (byte-identical replay when off).
	Sharing bool
}

// Deploy brings the plan up on a fresh simulated cluster.
func Deploy(w *Workload, plan *Plan, opts DeployOptions) (*System, error) {
	if opts.MonitorWindow == 0 {
		opts.MonitorWindow = 24 * time.Hour
	}
	if opts.Admission != nil && opts.Admission.Contracts == nil {
		cfg := *opts.Admission
		cfg.Contracts = admission.ContractsFromLogs(w.Logs, cfg.Headroom)
		opts.Admission = &cfg
	}
	eng := sim.NewEngine()
	var pool *cluster.Pool
	if opts.Domains > 1 {
		pool = cluster.NewPoolDomains(plan.NodesUsed()+opts.SpareNodes, opts.Domains)
	} else {
		pool = cluster.NewPool(plan.NodesUsed() + opts.SpareNodes)
	}
	m := master.New(eng, pool, master.Options{
		Immediate:     opts.Immediate,
		ParallelLoad:  opts.ParallelLoad,
		MonitorWindow: opts.MonitorWindow,
		Sharded:       opts.Sharded,
		Recovery:      opts.Recovery,
		Admission:     opts.Admission,
		Gray:          opts.Gray,
		NoSpread:      opts.NoSpread,
		Triage:        opts.Triage,
		Sharing:       opts.Sharing,
	})
	dep, err := m.Deploy(plan, w.Tenants())
	if err != nil {
		return nil, err
	}
	return &System{Engine: eng, Pool: pool, Deployment: dep, Plan: plan, Workload: w}, nil
}

// ReplayOptions re-exports the replay options.
type ReplayOptions = replay.Options

// TakeOver re-exports the §7.5 take-over injection spec.
type TakeOver = replay.TakeOver

// Failure re-exports the node-failure injection spec. Injected failures
// only break a node; detection and repair run autonomously through the
// §4.4 recovery controllers replay arms alongside them.
type Failure = replay.Failure

// ReplayReport re-exports the replay report.
type ReplayReport = replay.Report

// RecoveryConfig re-exports the autonomous recovery controller
// configuration (heartbeat interval, acquisition attempts, backoff).
type RecoveryConfig = recovery.Config

// DefaultRecoveryConfig returns 30 s heartbeats and 5 acquisition attempts
// backing off 1→16 min with an hour between cycles.
func DefaultRecoveryConfig() RecoveryConfig { return recovery.DefaultConfig() }

// GrayConfig re-exports the fail-slow detector configuration (beat
// interval, peer-relative suspicion thresholds, confirm/clear beats, drain
// timing, flap strike-out).
type GrayConfig = recovery.GrayConfig

// DefaultGrayConfig returns 1 min beats, a 1.5× peer-median suspicion
// threshold, 3 confirm / 2 clear beats, a 10 min hedge-first grace before
// drain, and a 3-strike flap cutoff.
func DefaultGrayConfig() GrayConfig { return recovery.DefaultGrayConfig() }

// TriageConfig re-exports the cluster-wide scarcity triage configuration
// (claim poll interval).
type TriageConfig = recovery.TriageConfig

// DefaultTriageConfig returns one-minute claim polls.
func DefaultTriageConfig() TriageConfig { return recovery.DefaultTriageConfig() }

// AdmissionConfig re-exports the overload-protection configuration
// (per-tenant contracts, queue bound, deadline factor, brownout
// thresholds).
type AdmissionConfig = admission.Config

// DefaultAdmissionConfig returns 2× contract headroom, a 32-slot admission
// queue, a 1.25 deadline factor, and 30 s brownout evaluation.
func DefaultAdmissionConfig() AdmissionConfig { return admission.DefaultConfig() }

// Contract re-exports a tenant's contracted arrival process (token-bucket
// rate + burst).
type Contract = admission.Contract

// OnlineConfig re-exports the continuous re-consolidation loop's
// configuration (control period, drain slack, drift threshold, local-move
// budget, migration cost model).
type OnlineConfig = online.Config

// DefaultOnlineConfig returns the loop's standard settings: 15-minute
// control period, 1-hour drain slack, 32-epoch drift threshold, 4 local
// moves per group per tick, parallel bulk-load migrations.
func DefaultOnlineConfig(plan PlanConfig, horizon sim.Time) OnlineConfig {
	return online.DefaultConfig(plan, horizon)
}

// OnlineController re-exports the per-deployment online control loop.
type OnlineController = online.Controller

// EnableOnline arms continuous incremental re-consolidation on the system:
// every control period the loop streams observed activity deltas into live
// per-tenant profiles, detects drift, churn, and broken fuzzy-capacity
// constraints, repairs the partition with bounded local moves (escalating to
// a scoped offline re-solve only when necessary), and executes the outcome
// as live migrations — provision in the background, drain through the old
// group, flip the routing index atomically at cutover.
//
// Requires a shared-domain deployment (DeployOptions.Sharded=false).
// Migrations run through a second master on the same engine and node pool,
// paying the Table 5.1 startup and reload costs unless cfg.Immediate.
func (s *System) EnableOnline(cfg OnlineConfig) (*OnlineController, error) {
	mig := master.New(s.Engine, s.Pool, master.Options{
		Immediate:     cfg.Immediate,
		ParallelLoad:  cfg.ParallelLoad,
		MonitorWindow: 24 * time.Hour,
	})
	ctl, err := online.New(s.Engine, s.Deployment, mig, s.Plan, s.Workload.Logs, cfg)
	if err != nil {
		return nil, err
	}
	ctl.Start()
	s.Online = ctl
	return ctl, nil
}

// ScalerConfig re-exports the elastic scaler configuration.
type ScalerConfig = scaling.Config

// DefaultScalerConfig returns the thesis' scaler settings for the given
// guarantee and replication factor.
func DefaultScalerConfig(p float64, r int) ScalerConfig { return scaling.DefaultConfig(p, r) }

// Replay drives the system with its workload's logged queries, one loop
// per clock domain (see replay.Run): a shared deployment runs on its one
// engine, a sharded one advances every tenant-group concurrently. Either
// way the report is deterministic per seed, with records in group order.
func (s *System) Replay(opts ReplayOptions) (*ReplayReport, error) {
	return replay.Run(s.Deployment, s.Workload.Catalog, s.Workload.Logs, opts)
}

// ServeOptions configures the HTTP front end.
type ServeOptions struct {
	// TimeScale is virtual seconds per wall second (default 60).
	TimeScale float64
	// DisableMetrics removes the Prometheus GET /metrics endpoint.
	DisableMetrics bool
	// SubmitRetries bounds retries of a transiently failed submit (all
	// replicas down, e.g. mid-recovery) before giving up with 504
	// (default 3; negative disables retries).
	SubmitRetries int
	// SubmitBackoff is the virtual-time wait between submit attempts
	// (default 30 s).
	SubmitBackoff time.Duration
	// SubmitTimeout is the virtual-time budget per submit (default 5 min).
	SubmitTimeout time.Duration
}

// Handler returns the MPPDBaaS HTTP API over the system. Deploy with
// Sharded for a front end whose submits to different tenant-groups proceed
// in parallel. An online control loop armed via EnableOnline is surfaced at
// GET /v1/online and GET /v1/reconsolidation.
func (s *System) Handler(opts ServeOptions) (http.Handler, error) {
	srv, err := service.New(s.Deployment, s.Workload.Catalog, s.Plan, service.Config{
		TimeScale:      opts.TimeScale,
		DisableMetrics: opts.DisableMetrics,
		SubmitRetries:  opts.SubmitRetries,
		SubmitBackoff:  opts.SubmitBackoff,
		SubmitTimeout:  opts.SubmitTimeout,
	})
	if err != nil {
		return nil, err
	}
	if s.Online != nil {
		srv.SetOnline(s.Online)
	}
	return srv, nil
}

// Telemetry returns the system's telemetry hub: the metrics registry, query
// tracer, SLA-event stream, and per-tenant SLA accounting every subsystem
// reports into.
func (s *System) Telemetry() *telemetry.Hub { return s.Deployment.Telemetry() }
