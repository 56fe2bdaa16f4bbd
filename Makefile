# Developer entry points. The repo needs only the Go toolchain.

.PHONY: build test check bench-contract bench-compare fuzz-smoke crash-smoke golden-update

build:
	go build ./...

test:
	go test ./...

# check is the pre-merge gate: formatting and static analysis, the race
# detector over the packages that run goroutines (the engine's parallel block
# compile, the parallel ingress scans, the single-flight placement
# cache, the multi-tenant job service's worker pool, including the
# fault-recovery paths exercised by the chaos suite) or are otherwise
# concurrency-sensitive (the metrics registry), the differential tests pinning
# each fast path to its executable spec (the partitioners to their
# sequential specs at GOMAXPROCS 1, 2, 3 and 8, the delete index to a full scan, and at -cpu 1,2,4 the
# placement compile to a stable sort and master selection to the serial
# reservoir sample), the allocation guards (ingress budgets; the engine's
# superstep loop allocates nothing per superstep, in either engine, and the
# reference engine nothing per edge; the accountant's charges allocate
# nothing, and the async apps nothing per round — next to the
# property tests holding every program's Fold and Apply to their one-element
# forms and its Init to the per-vertex definition;
# placement finalization allocates by machine count, never by edge count; both
# undirected CSR builds allocate the same at any graph size, next to the
# differential pinning the CSR builders to a per-row sort and the unsorted one
# to first occurrences in edge order; KCore allocates nothing per vertex and
# at most one raw CSR's bytes of adjacency, next to the differential pinning its
# survivor-list peel to the scan-all loop; a recorded solo run priced on each
# machine type charges what running it there does, bit for bit, and a stream
# whose charges depended on its cluster is refused; every app's result and
# event stream are the same, bit for bit, when each machine's local edge list
# is shuffled), the batched-BFS differential suite pinning
# the 64-lane packed traversal to 64 scalar runs at -cpu 1,2,4, the
# evolving-graph differentials (amended placements inside their imbalance
# envelope, O(|delta|) fingerprints bit-identical to full rescans, the
# sharded rescan equal to its sequential sum at GOMAXPROCS 1, 2, 3 and 8,
# process-stable partitioner cache keys), the overload and evolve golden files
# pinning the service control plane and the incremental-recomputation chain
# byte-for-byte, one iteration of every engine, ingress, amend and delta
# micro-benchmark and of the root experiment harness's table1 (so they keep
# compiling and reporting; timing is benchmark/'s job, see bench-compare), the end-to-end
# benchmark's own contract tests, and a short fuzz pass over every
# decoder/encoder boundary (the job-submission endpoint and the CCR pool
# loader included) plus the packed-traversal and delta property fuzzers.
check:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l . lists:"; gofmt -l .; exit 1; }
	go vet ./...
	go test -race ./internal/engine ./internal/partition ./internal/apps ./internal/fault ./internal/trace ./internal/workload ./internal/service ./internal/graph
	go test -race -cpu 1,2,4 -run TestClusterBFS ./internal/apps
	go test -run 'TestIngressDifferential|TestCompileBlocksParallelMatchesSequential|TestDeletedIndicesMatchesFullScan' ./internal/partition ./internal/engine ./internal/graph
	go test -cpu 1,2,4 -run 'TestCompileBlocksMatchesStableSortSpec|TestMasterSelectionMatchesReservoirSpec' ./internal/engine
	go test -run 'TestIngressAllocs|TestHybridShardedBytesRegression|TestRunAllocs|TestAccountantAllocs|TestAsyncAppsAllocateNothingPerRound|TestPropertyFoldContract|TestPropertyApplyContract|TestPropertyInitContract|TestNewPlacementAllocs|TestBuildUndirectedCSRAllocs|TestKCoreRunAllocs|TestKCoreMatchesScanAllSpec|TestBuildCSRMatchesSortSpec|TestPriceMatchesRun|TestPriceRefusesClusterDependentStreams|TestClockInvariantUnderLocalEdgeOrder' ./internal/partition ./internal/engine ./internal/graph ./internal/apps
	go test -run 'TestAmendDifferential|TestEvolveFingerprint|TestFingerprintWorkerInvariance|TestPartitionerFingerprintStability' ./internal/partition ./internal/workload
	go test -run 'TestGoldenTables/(overload|evolve)' ./internal/exp
	go test -run '^$$' -bench . -benchtime 1x ./internal/engine ./internal/partition ./internal/graph
	go test -run '^$$' -bench 'Experiments/table1$$' -benchtime 1x .
	$(MAKE) bench-contract
	$(MAKE) fuzz-smoke

# bench-contract vets and tests the end-to-end benchmark harness: benchmark/
# is a Go module of its own (replace proxygraph => ../), so go test ./... does
# not reach it, yet it binds to App.Run, Session.RunJob, Resume and
# NewPlacement — an API deletion next to those must not break it. Its pinned
# Supersteps/Gathers/SimSeconds expectations also re-check bit-identity.
bench-contract:
	cd benchmark && go vet . && go test .

# bench-compare measures one workload on a parent commit and on the working
# tree in alternating pairs and prints, per end-to-end metric, both medians,
# both quartile ranges and the pairs the working tree won — the evidence a
# performance change quotes. About 30 s per pair; run it on an idle host.
PARENT ?= HEAD
WORKLOAD ?= cold_ingest
PAIRS ?= 10
bench-compare:
	bash scripts/bench_compare.sh $(PARENT) $(WORKLOAD) $(PAIRS)

# fuzz-smoke runs each fuzz target briefly — enough to exercise the seed
# corpus plus a few thousand mutations, cheap enough for every merge. Longer
# campaigns: go test -fuzz FuzzChromeTrace -fuzztime 5m ./internal/trace
FUZZTIME ?= 5s
fuzz-smoke:
	go test -run '^$$' -fuzz FuzzChromeTrace -fuzztime $(FUZZTIME) ./internal/trace
	go test -run '^$$' -fuzz FuzzPrometheus -fuzztime $(FUZZTIME) ./internal/trace
	go test -run '^$$' -fuzz FuzzDecodeJournal -fuzztime $(FUZZTIME) ./internal/service
	go test -run '^$$' -fuzz FuzzClusterBFS -fuzztime $(FUZZTIME) ./internal/apps
	go test -run '^$$' -fuzz FuzzDelta -fuzztime $(FUZZTIME) ./internal/graph
	go test -run '^$$' -fuzz FuzzSubmitRequest -fuzztime $(FUZZTIME) ./cmd/serve
	go test -run '^$$' -fuzz FuzzPoolJSON -fuzztime $(FUZZTIME) ./internal/core

# crash-smoke runs the end-to-end crash-restart check: a journaling serve
# process is kill -9'd mid-life and restarted; status URLs, idempotency keys
# and recovery metrics must survive. CI runs it on every merge.
crash-smoke:
	bash scripts/crash_restart_smoke.sh

# golden-update rewrites the experiment golden files after an intentional
# accounting or formatting change; review the testdata diff before committing.
golden-update:
	go test ./internal/exp -run TestGoldenTables -update
