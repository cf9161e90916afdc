GO ?= go

# Headline benchmarks guarded per-PR: the exact-arithmetic substrate and
# its heaviest consumers. Keep in sync with .github/workflows/ci.yml.
# BenchmarkSimulator's N=100k sparse cases are excluded from the smoke
# (seconds per iteration); bench-json records the full grid.
BENCH_SMOKE = BenchmarkChecker|BenchmarkMaxRelevantRatio|BenchmarkIncrementalChecker
BENCH_SIM_SMOKE = BenchmarkSimulator/.*/^n=(8|100|10000)$$

# Benchmarks recorded into $(BENCH_OUT) by bench-json: the smoke set, the
# simulator topology grid up to N=100k, the serial-vs-sharded engine grid
# (shards 1/2/4/8 at N=100k and N=10^6), and graph construction. The
# N=10^6 cases are seconds per iteration, so bench-json runs them in a
# second, shorter invocation and concatenates both streams into one
# benchjson document (whose host block records cores and GOMAXPROCS —
# sharded numbers are meaningless without them).
BENCH_JSON_MAIN = $(BENCH_SMOKE)|BenchmarkGraphBuild|BenchmarkSimulator/.*/^n=(8|100|10000|100000)$$|BenchmarkSimulatorSharded/topo=ring/^n=100000$$
BENCH_JSON_SCALE = BenchmarkSimulator(Sharded)?/topo=ring/^n=1000000$$

# Per-PR benchmark record; earlier PRs' files stay in the repository so
# the trajectory can be diffed.
BENCH_OUT ?= BENCH_pr10.json

.PHONY: all build vet test race bench bench-smoke bench-json bench-selftest fuzz-smoke fleet-bench cli-smoke scale-smoke cover ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs every test under the race detector in shuffled order — the
# one test step of CI; the targets below add fuzz, bench, coverage and CLI
# smokes on top.
race:
	$(GO) test -race -shuffle=on ./...

# bench runs the full paper evaluation (cmd/abcbench). CPUPROFILE= and
# MEMPROFILE= pass pprof output paths through, so engine regressions can
# be chased with real experiment traffic: `make bench CPUPROFILE=cpu.out`.
#
# The sharded engine labels its goroutines with runtime/pprof labels, so
# a CPU profile splits cleanly by engine mode, shard, and phase:
#
#	make bench CPUPROFILE=cpu.out
#	go tool pprof -tags cpu.out                    # label inventory
#	go tool pprof -tagfocus=abc_engine=sharded cpu.out   # parallel mode only
#	go tool pprof -tagfocus=abc_phase=merge cpu.out      # the serial merge
#	go tool pprof -tagfocus=abc_shard=0 cpu.out          # one shard's drain
#
# abc_phase distinguishes drain (parallel window execution), barrier (the
# coordinator waiting on shard workers), and merge (the serial replay that
# keeps traces byte-identical); a merge-heavy profile means lookahead
# windows are too small for the topology, a barrier-heavy one means the
# shard ranges are load-imbalanced.
bench:
	$(GO) run ./cmd/abcbench $(if $(CPUPROFILE),-cpuprofile $(CPUPROFILE)) $(if $(MEMPROFILE),-memprofile $(MEMPROFILE))

# bench-smoke runs the three headline benchmarks briefly — enough to catch
# order-of-magnitude regressions in the arithmetic layer, not to replace a
# real benchstat comparison — plus the simulator grid up to the N=10k ring
# fan-out case and one pass of the E18 cross-workload matrix.
bench-smoke:
	$(GO) test -run=NONE -bench='$(BENCH_SMOKE)' -benchmem -benchtime=10x .
	$(GO) test -run=NONE -bench='$(BENCH_SIM_SMOKE)' -benchmem -benchtime=10x .
	$(GO) test -run=NONE -bench='BenchmarkE18_CrossWorkload' -benchtime=1x .

# bench-json records the perf trajectory: the headline benchmarks are
# rendered to $(BENCH_OUT) (via cmd/benchjson) so per-PR numbers live
# in the repository and can be diffed, not just quoted in CHANGES.md.
bench-json:
	( $(GO) test -run=NONE -bench='$(BENCH_JSON_MAIN)' -benchmem -benchtime=20x . && \
	  $(GO) test -run=NONE -bench='$(BENCH_JSON_SCALE)' -benchmem -benchtime=3x -timeout 30m . ) \
	  | $(GO) run ./cmd/benchjson > $(BENCH_OUT)
	@echo wrote $(BENCH_OUT)

# bench-selftest builds and self-tests the repository benchmark (abcperf/,
# a nested module outside `./...`), so an API change in runner, sim or
# workload that breaks the benchmark program fails here instead of silently.
bench-selftest:
	cd abcperf && $(GO) build ./... && $(GO) test ./...

# fuzz-smoke gives each differential fuzz target a short budget; the seed
# corpus already pins the int64 overflow boundary, so even 10s runs cross
# the promotion/demotion paths. FuzzReadJSON guards the trace input
# boundary: bytes -> sim.ReadJSON -> batch and incremental checkers.
# FuzzConstraintKernel pins the checker's constraint-CSR Bellman–Ford
# against the generic Digraph reference it replaced. FuzzDeliveryQueue
# pins the calendar delivery queue's pop order against an exact-order
# reference heap. FuzzParseTopology guards the topology-spec input.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzArith -fuzztime=10s ./internal/rat
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=10s ./internal/rat
	$(GO) test -run=NONE -fuzz=FuzzParseFaults -fuzztime=10s ./internal/workload
	$(GO) test -run=NONE -fuzz=FuzzReadJSON -fuzztime=10s ./internal/sim
	$(GO) test -run=NONE -fuzz=FuzzParseTopology -fuzztime=10s ./internal/sim
	$(GO) test -run=NONE -fuzz=FuzzDeliveryQueue -fuzztime=10s ./internal/sim
	$(GO) test -run=NONE -fuzz=FuzzConstraintKernel -fuzztime=10s ./internal/check

# fleet-bench records the serial vs 8-worker wall-clock of the full E1–E16
# evaluation through the runner (needs >= 8 hardware threads to show the
# speedup; see DESIGN.md decision 5).
fleet-bench:
	$(GO) test -run=NONE -bench='BenchmarkFleetExperiments' -benchtime=3x .

# cli-smoke drives the headline CLI sweeps end to end: a crash-at-step
# sweep, a Byzantine-budget grid, a recovery/partition sweep, an Ω
# recovery run, and a sharded NDJSON sweep.
cli-smoke:
	$(GO) run ./cmd/abcsim -workload consensus -param algo=floodset -sweep faults=none,crash/1@0,crash/1@2 -runs 2
	$(GO) run ./cmd/abcsim -workload clocksync -sweep faults=byz/1@20,byz/1@60 -runs 2
	$(GO) run ./cmd/abcsim -workload broadcast -sweep faults=none,recover/1@2..4,partition/halves@2..5 -runs 2
	$(GO) run ./cmd/abcsim -workload omega -param faults=recover/p0@4..12 -runs 2
	$(GO) run ./cmd/abcsim -workload broadcast -param n=100 -runs 4 -shards 4 -json > /dev/null

# scale-smoke runs a single N=10^6 RetainNone ring iteration as a
# wall-clock smoke: the time budget catches throughput collapses at scale,
# benchstat catches drift.
scale-smoke:
	$(GO) test -run=NONE -bench='$(BENCH_JSON_SCALE)' -benchmem -benchtime=1x -timeout 15m .

cover:
	$(GO) test -cover -coverprofile=cover.out ./internal/runner ./internal/sim
	$(GO) tool cover -func=cover.out

ci: vet race fuzz-smoke bench-selftest bench-smoke fleet-bench cover cli-smoke scale-smoke
