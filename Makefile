# Developer entry points. The repo needs only the Go toolchain.

.PHONY: build test check loc bench-contract bench-compare fuzz-smoke crash-smoke golden-update

build:
	go build ./...

test:
	go test ./...

# PKGS is every package of the module; benchmark/ is a module of its own.
PKGS = $(shell go list ./...)

# check is the pre-merge gate, and CI's test job is make check FUZZTIME=30s.
check: build test
# Formatting, benchmark/ included.
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l . lists:"; gofmt -l .; exit 1; }
# Static analysis.
	go vet ./...
# The race detector on every package but the root (88 s under -race) and internal/exp (144 s), timed on 2 vCPUs.
	go test -race $(filter-out proxygraph proxygraph/internal/exp,$(PKGS))
# Fig 9's concurrent cells, whose event stream must be the same at GOMAXPROCS 1 and 4, raced.
	go test -race -run TestFig9TraceStream ./internal/exp
# The 64-lane packed traversal against 64 scalar runs, raced at 1, 2 and 4 procs.
	go test -race -cpu 1,2,4 -run TestClusterBFS ./internal/apps
# SSSP on one cached placement beside a concurrent BFS compiling its GatherBoth grouping, raced at 1, 2 and 4 procs.
	go test -race -cpu 1,2,4 -run TestSSSPBesideBFSCompile ./internal/apps
# The pool's shared share-vector memo, read by goroutines while a Put replaces an app's CCR, raced at 1, 2 and 4 procs.
	go test -race -cpu 1,2,4 -run TestPoolSharesFor ./internal/core
# Four goroutines profiling on one proxy profiler, as Fig 9's cells do, raced at 1, 2 and 4 procs.
	go test -race -cpu 1,2,4 -run TestProfileConcurrent ./internal/core
# Four goroutines appending to one journal while others snapshot and compact it, raced at 1, 2 and 4 procs.
	go test -race -cpu 1,2,4 -run TestJournalConcurrent ./internal/service
# The placement compile, master selection, source grouping and edge index against their specs at 1, 2 and 4 procs.
	go test -cpu 1,2,4 -run 'TestCompileBlocksMatchesStableSortSpec|TestMasterSelectionMatchesReservoirSpec|TestSourceGroupingCompilesOnFirstSparseStep|TestLocalEdgesBuiltOnFirstWalk' ./internal/engine
# One iteration of every package's benchmarks but the root's catalog harness, so each keeps compiling and reporting.
	go test -run '^$$' -bench . -benchtime 1x $(filter-out proxygraph,$(PKGS))
# One iteration of the catalog harness, on table1.
	go test -run '^$$' -bench 'Experiments/table1$$' -benchtime 1x .
# The end-to-end benchmark's own contract tests.
	$(MAKE) bench-contract
# A short pass of every fuzz target.
	$(MAKE) fuzz-smoke

# loc prints the line count of the tracked non-test Go files outside
# benchmark/, the size ROADMAP.md tracks.
loc:
	@git ls-files '*.go' | grep -v _test.go | grep -v '^benchmark/' | xargs cat | wc -l

# bench-contract vets and tests the end-to-end benchmark harness: benchmark/
# is a Go module of its own (replace proxygraph => ../), so go test ./... does
# not reach it, yet it binds to App.Run, Session.RunJob, Resume and
# NewPlacement — an API deletion next to those must not break it. Its pinned
# Supersteps/Gathers/SimSeconds expectations also re-check bit-identity.
bench-contract:
	cd benchmark && go vet . && go test .

# bench-compare measures each workload of the space-separated WORKLOAD list on
# a parent commit and on the working tree in alternating pairs (at least 2)
# and prints, per workload and end-to-end metric, both medians, both quartile
# ranges and the pairs the working tree won — the evidence a performance
# change quotes. About 30 s per pair; run it on an idle host.
PARENT ?= HEAD
WORKLOAD ?= cold_ingest
PAIRS ?= 10
bench-compare:
	bash scripts/bench_compare.sh $(PARENT) '$(WORKLOAD)' $(PAIRS)

# fuzz-smoke runs every fuzz target of the module for FUZZTIME, one go test
# run each (-fuzz takes one target), so a new Fuzz function joins by itself.
# Longer campaigns: go test -run '^$' -fuzz '^FuzzChromeTrace$' -fuzztime 5m ./internal/trace
FUZZTIME ?= 5s
fuzz-smoke:
	$(foreach t,$(FUZZ_TARGETS),$(call fuzz,$(t)))

# FUZZ_TARGETS lists package:FuzzName for each target; go test -list prints a
# package's matching names, then its "ok <package>" line.
FUZZ_TARGETS = $(shell go test -list '^Fuzz' ./... | awk '/^Fuzz/ { t[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2 ":" t[i]; n = 0 }')

define fuzz
go test -run '^$$' -fuzz '^$(lastword $(subst :, ,$(1)))$$' -fuzztime $(FUZZTIME) $(firstword $(subst :, ,$(1)))

endef

# crash-smoke runs the end-to-end crash-restart check: a journaling serve
# process is kill -9'd mid-life and restarted; status URLs, idempotency keys
# and recovery metrics must survive. CI runs it on every merge.
crash-smoke:
	bash scripts/crash_restart_smoke.sh

# golden-update rewrites the experiment golden files after an intentional
# accounting or formatting change; review the testdata diff before committing.
golden-update:
	go test ./internal/exp -run TestEveryExperimentProducesWellFormedTables -update
