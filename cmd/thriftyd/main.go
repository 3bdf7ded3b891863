// Command thriftyd runs the Thrifty MPPDB-as-a-Service front end: it
// generates a tenant population, plans and deploys the consolidated
// cluster, and serves the HTTP API (query submission, plan and group
// inspection, tenant registration, observability).
//
// The execution substrate is the virtual-time MPPDB simulator, paced
// against the wall clock (default 60 virtual seconds per wall second).
//
// Observability: unless -metrics=false, GET /metrics serves the telemetry
// registry in Prometheus text format (routing decisions, in-flight queries,
// per-MPPDB service/sojourn histograms, RT-TTP, SLA counters);
// GET /v1/events streams the recent SLA-event log and GET /v1/slo the
// per-tenant SLA attainment against P.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// (including long scrapes and event reads) get up to 10 s to complete
// before the listener is torn down.
//
// Usage:
//
//	thriftyd -addr :8080 -tenants 200
//	curl -s localhost:8080/v1/plan | jq .
//	curl -s -XPOST localhost:8080/v1/queries -d '{"tenant":"T0000","query":"TPCH-Q1"}'
//	curl -s localhost:8080/metrics | grep thrifty_
//	curl -s localhost:8080/v1/slo | jq .
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	thrifty "repro"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		tenants   = flag.Int("tenants", 200, "number of tenants")
		days      = flag.Int("days", 7, "history horizon used for planning")
		r         = flag.Int("r", 3, "replication factor R")
		p         = flag.Float64("p", 0.999, "performance SLA guarantee P")
		timeScale = flag.Float64("timescale", 60, "virtual seconds per wall second")
		seed      = flag.Int64("seed", 1, "random seed")
		metrics   = flag.Bool("metrics", true, "expose Prometheus text metrics at /metrics")
		sharded   = flag.Bool("sharded", true, "per-group clock domains: submits to different tenant-groups proceed in parallel")
		recovery  = flag.Bool("recovery", true, "arm an autonomous recovery controller per tenant-group (heartbeat failure detection, pool swap, Table 5.1 reload)")

		domains        = flag.Int("domains", 1, "failure domains (racks/zones) the pool is split across; >1 enables spread-aware placement")
		triageOn       = flag.Bool("triage", false, "arm the cluster-wide scarcity triage: exhausted recoveries queue claims ranked by SLA-at-risk instead of uncoordinated backoff (requires -recovery)")
		triageInterval = flag.Duration("triage-interval", time.Minute, "virtual-time poll period of queued triage claims")

		onlineOn       = flag.Bool("online", false, "arm continuous online re-consolidation (drift detection, local repair, live migrations); forces a shared clock domain")
		onlineInterval = flag.Duration("online-interval", 15*time.Minute, "virtual-time control period of the online loop")

		admissionOn       = flag.Bool("admission", true, "arm overload protection per tenant-group (contract enforcement, bounded admission queue, brownout)")
		admissionHeadroom = flag.Float64("admission-headroom", 2, "factor applied to each tenant's logged arrival rate/burst when deriving its contract")
		admissionQueue    = flag.Int("admission-queue", 32, "bound of the per-group admission queue (submits waiting for a retry slot)")

		grayOn           = flag.Bool("gray", false, "arm fail-slow (gray failure) detection per tenant-group: peer-relative latency anomaly detection with a hedge → drain-and-replace ladder")
		grayInterval     = flag.Duration("gray-interval", time.Minute, "virtual-time beat of the gray detector")
		graySuspect      = flag.Float64("gray-suspect", 1.5, "suspicion threshold: an instance's mean completion slowdown vs the peer median")
		grayConfirmBeats = flag.Int("gray-confirm-beats", 3, "consecutive suspect beats before a suspected (and already hedged) gray instance is confirmed")
		grayDrainAfter   = flag.Duration("gray-drain-after", 10*time.Minute, "how long a confirmed-gray instance is hedged before it is drained and replaced")
		grayStrikeDecay  = flag.Duration("gray-strike-decay", 6*time.Hour, "clear stretch after which an instance's strike count is forgotten")

		sharingOn = flag.Bool("sharing", false, "enable shared-work execution: concurrent same-class queries merge into one shared scan per MPPDB, and the advisor packs for the credited capacity")

		submitRetries = flag.Int("submit-retries", 3, "retries of a transiently failed submit before 504 (negative disables)")
		submitBackoff = flag.Duration("submit-backoff", 30*time.Second, "virtual-time wait between submit attempts")
		submitTimeout = flag.Duration("submit-timeout", 5*time.Minute, "virtual-time budget per submit before 504")
	)
	flag.Parse()

	fmt.Fprintf(os.Stderr, "thriftyd: generating %d tenants (%d-day history)...\n", *tenants, *days)
	w, err := thrifty.GenerateWorkload(thrifty.WorkloadConfig{
		Tenants:          *tenants,
		Days:             *days,
		SessionsPerClass: 10,
		Seed:             *seed,
	})
	if err != nil {
		fatal("%v", err)
	}

	pcfg := thrifty.DefaultPlanConfig()
	pcfg.R = *r
	pcfg.P = *p
	pcfg.Sharing = *sharingOn
	fmt.Fprintf(os.Stderr, "thriftyd: planning deployment (R=%d, P=%.4g%%)...\n", *r, 100**p)
	start := time.Now()
	plan, err := thrifty.PlanDeployment(w, pcfg)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr, "thriftyd: %d groups on %d of %d requested nodes (%.1f%% saved) in %v\n",
		len(plan.Groups), plan.NodesUsed(), plan.RequestedNodes,
		100*plan.Effectiveness(), time.Since(start).Round(time.Millisecond))

	if *onlineOn && *sharded {
		fmt.Fprintln(os.Stderr, "thriftyd: -online requires one shared clock domain; overriding -sharded=false")
		*sharded = false
	}
	dopts := thrifty.DeployOptions{
		Immediate:    true,
		ParallelLoad: true,
		SpareNodes:   64,
		Sharded:      *sharded,
		Domains:      *domains,
		Sharing:      *sharingOn,
	}
	if *recovery {
		rcfg := thrifty.DefaultRecoveryConfig()
		dopts.Recovery = &rcfg
	}
	if *triageOn {
		if !*recovery {
			fatal("-triage requires -recovery")
		}
		tcfg := thrifty.DefaultTriageConfig()
		tcfg.Interval = *triageInterval
		dopts.Triage = &tcfg
	}
	if *admissionOn {
		acfg := thrifty.DefaultAdmissionConfig()
		acfg.Headroom = *admissionHeadroom
		acfg.MaxQueue = *admissionQueue
		dopts.Admission = &acfg
	}
	if *grayOn {
		gcfg := thrifty.DefaultGrayConfig()
		gcfg.Interval = *grayInterval
		gcfg.SuspectRatio = *graySuspect
		gcfg.ConfirmBeats = *grayConfirmBeats
		gcfg.DrainAfter = *grayDrainAfter
		gcfg.StrikeDecay = *grayStrikeDecay
		dopts.Gray = &gcfg
	}
	sys, err := thrifty.Deploy(w, plan, dopts)
	if err != nil {
		fatal("%v", err)
	}
	if *onlineOn {
		ocfg := thrifty.DefaultOnlineConfig(pcfg, w.Horizon)
		ocfg.Interval = *onlineInterval
		if _, err := sys.EnableOnline(ocfg); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "thriftyd: online re-consolidation armed (control period %v)\n", *onlineInterval)
	}
	h, err := sys.Handler(thrifty.ServeOptions{
		TimeScale:      *timeScale,
		DisableMetrics: !*metrics,
		SubmitRetries:  *submitRetries,
		SubmitBackoff:  *submitBackoff,
		SubmitTimeout:  *submitTimeout,
	})
	if err != nil {
		fatal("%v", err)
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests so scrapes
	// and event reads are never cut off mid-response.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Addr: *addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "thriftyd: serving MPPDBaaS on %s (time scale %g×, metrics %v, sharded %v, recovery %v, admission %v, gray %v, online %v, sharing %v)\n",
		*addr, *timeScale, *metrics, *sharded, *recovery, *admissionOn, *grayOn, *onlineOn, *sharingOn)

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal("%v", err)
		}
	case <-ctx.Done():
		stop()
		fmt.Fprintln(os.Stderr, "thriftyd: shutting down (draining in-flight requests)...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fatal("shutdown: %v", err)
		}
	}
	fmt.Fprintln(os.Stderr, "thriftyd: bye")
}

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so a slow or stalled connection cannot pin a server goroutine.
const readHeaderTimeout = 10 * time.Second

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "thriftyd: "+format+"\n", args...)
	os.Exit(1)
}
