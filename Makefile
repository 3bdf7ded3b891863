GO ?= go

.PHONY: check vet build test race size fault-smoke grouping-smoke online-smoke service-smoke shared-smoke bench bench-grouping bench-online bench-service bench-shareddb

# The full pre-commit gate: static checks, build, the bounded fault,
# grouping, online, service and shared-work smokes, and the race-enabled
# suite.
check: vet build fault-smoke grouping-smoke online-smoke service-smoke shared-smoke race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The two design-size metrics the ROADMAP tracks: non-test Go lines outside
# perfbench/, and the number of flags `thriftyd -h` lists. Informational;
# not part of check.
size:
	@printf 'non-test Go lines outside perfbench/: '
	@git ls-files '*.go' | grep -v '^perfbench/' | grep -v '_test.go$$' | xargs cat | wc -l
	@printf 'thriftyd flags: '
	@$(GO) run ./cmd/thriftyd -h 2>&1 | grep -c '^  -'

# Bounded fault smokes with the race detector on, each a seeded scenario
# driven through replay.Run: node crashes on a small sharded deployment of
# two groups (two clock domains advancing concurrently under injection,
# heartbeat detection, autonomous recovery);
# a noisy-tenant storm against an admission-armed group (aggressor
# throttled, compliant tenants hold their guarantee); a gray-failure storm
# of stuck, gradual and flapping slowdowns (hedge → drain-and-replace
# restores attainment); and a whole-domain outage against a spread-placed,
# triage-armed deployment (quarantine re-routing, scarcity triage,
# restoration re-spread). Every one must end with zero dropped queries and
# a leak-free pool.
fault-smoke:
	$(GO) test -race -short -run 'TestChaosSmoke|TestOverloadSmoke|TestGraySmoke|TestDomainSmoke' -count=1 ./internal/recovery/chaos

# Solver-equivalence property tests under the race detector plus a one-shot
# pass over the solver-scale benchmarks, so a pruning bug or a benchmark
# bit-rot is caught before commit without paying full benchmark time.
grouping-smoke:
	$(GO) test -race -run 'TestSolverMatchesReference' -count=1 ./internal/grouping
	$(GO) test -bench 'BenchmarkTwoStep2000|BenchmarkPickBest' -benchtime=1x -run '^$$' ./internal/grouping

# Bounded online-re-consolidation smoke with the race detector on: a seeded
# drift run (churn, activity shift, live migrations, oracle comparison) plus
# the same-seed byte-determinism guard over the telemetry dumps.
online-smoke:
	$(GO) test -race -short -run 'TestDriftSmoke|TestOnlineDeterminism' -count=1 ./internal/experiments

# Shared-work execution smoke with the race detector on: the weighted
# shared-scan executor's unit surface (merge, late-join, degraded, hedge
# cancel, member cancel), the sharing-aware admission pressure read, and the
# small-scale experiment end to end — including the off-mode golden-hash
# equivalence guard (same-seed sharing-OFF replays must reproduce
# byte-for-byte).
shared-smoke:
	$(GO) test -race -run 'TestShared|TestSharing' -count=1 ./internal/mppdb
	$(GO) test -race -run 'TestBrownoutSharingEffectiveCapacity' -count=1 ./internal/admission
	$(GO) test -race -short -run 'TestSharingSmoke' -count=1 -timeout 20m ./internal/experiments

bench:
	$(GO) test -bench=. -benchmem ./...

# Full solver-scale benchmark run; persists ns/op, allocs/op, bytes/op and
# solution effectiveness to BENCH_grouping.json (committed, so perf
# regressions show up in review).
bench-grouping:
	BENCH_JSON_OUT=$(CURDIR)/BENCH_grouping.json $(GO) test -run TestWriteBenchJSON -count=1 -v ./internal/grouping

# Batched-submit smoke with the race detector on: per-item error
# partitioning over /v1/submit-batch (a 429/503/504 never drops a healthy
# batch-mate), batched-vs-per-query telemetry equivalence in both clock
# layouts, and the coalesced concurrent single-submit path.
service-smoke:
	$(GO) test -race -run 'TestBatchErrorPartitioning|TestConcurrentSubmitsAndScrapes|TestShardedConcurrentSubmits' -count=1 ./internal/service
	$(GO) test -race -run 'TestBatchSubmitEquivalence' -count=1 .

# Submit-path benchmark run: single vs 64-query batched submits over HTTP in
# both clock layouts, plus the runtime-layer batched path (which must stay
# allocation-free). Persists to BENCH_service.json (committed) and fails if
# the batched path drops below 3x the recorded pre-PR baseline.
bench-service:
	BENCH_JSON_OUT=$(CURDIR)/BENCH_service.json $(GO) test -run TestWriteServiceBenchJSON -count=1 -v -timeout 20m .

# Online-loop benchmark run: steady-state re-plan latency at 10k and 100k
# tenants against the epoch width, plus the drift scenario's online-vs-oracle
# SLA attainment. Persists to BENCH_online.json (committed) and fails if the
# acceptance bars (100× under the epoch width, no drops, within 1% of the
# oracle) regress.
bench-online:
	BENCH_JSON_OUT=$(CURDIR)/BENCH_online.json $(GO) test -run TestWriteOnlineBenchJSON -count=1 -v ./internal/experiments

# Shared-work executor benchmark run: the submit hot path with and without
# sharing, the merged batch's virtual-time work ratio against k independent
# scans, and the full consolidation-vs-attainment experiment outcome.
# Persists to BENCH_shareddb.json (committed) and fails if the acceptance
# bars (work ratio (1+(k-1)sigma)/k, hot path within 5x of plain, experiment
# verdict PASS) regress.
bench-shareddb:
	BENCH_JSON_OUT=$(CURDIR)/BENCH_shareddb.json $(GO) test -run TestWriteSharedBenchJSON -count=1 -v -timeout 20m ./internal/experiments
