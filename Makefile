GO ?= go

.PHONY: check vet build test race bench-guard bench bench-flows bench-scale bench-hybrid bench-churn determinism-cli fuzz fuzz-smoke chaos-smoke impairment-smoke loc

SWEEP = $(GO) run ./cmd/netco-sweep

# check is the pre-merge gate, eight legs: static checks, the full test
# suite under the race detector (with scratch poisoning on, so retained
# engine events fail loudly) — which holds the determinism matrix,
# TestDeterminismMatrix: every experiment-registry row × sweep workers ×
# partitions × settle workers × GOMAXPROCS × run-twice, same bytes —
# the allocation-guard benchmarks (one iteration each: they exist to run
# the b.ReportAllocs paths, not to produce stable timings), one CLI leg
# proving the execution flags reach the engines, and the scenario-fuzzer,
# chaos-lifecycle and impairment-pipeline smokes. CI
# (.github/workflows/ci.yml) runs these same targets, one per step.
check: vet build race bench-guard determinism-cli fuzz-smoke chaos-smoke impairment-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the whole suite — including the parallel runner and the
# cross-goroutine scheduler tests — under the race detector, with
# NETCO_POISON_SCRATCH=1 so any code that retains engine scratch events
# across calls sees them scribbled and fails deterministically. The
# second invocation repeats the partitioned-engine suites and the
# determinism matrix (whose sweep pool and settle workers would
# otherwise race only on the runner's default P count) on exactly two
# Ps: on one P the engine's default is one worker, every epoch runs
# inline, and the worker goroutines' hand-offs would go unraced.
race:
	NETCO_POISON_SCRATCH=1 $(GO) test -race ./...
	GOMAXPROCS=2 NETCO_POISON_SCRATCH=1 $(GO) test -race ./internal/sim/... ./internal/netem/ ./internal/experiment/ \
		-run 'Parallel|Partition|Handoff|Scale|DeterminismMatrix'

# determinism-cli is the one CLI leg of the determinism check (the matrix
# itself runs in-process under `race`): a quick grid over a packet kind,
# the chaos and impair kinds at a live grid point, and the three
# fat-tree kinds, through netco-sweep at -workers 2, at -workers 1, and
# on 4 partitions with 2 settle workers — same artifact bytes each time.
# Equal bytes alone would also pass if a flag were dropped on the floor,
# so the leg also greps the console's host-time lines for the epoch
# counters only a partitioned engine prints and for the settle-worker
# count. It replaces sweep-smoke, hybrid-smoke, scale-smoke,
# hybrid-bench-smoke, churn-smoke and impairment-smoke's CLI leg, which
# each restated one cell of the matrix in shell or in a netco-bench
# mode's exit code. hybrid-scale-smoke went with them: its 1000 ms build
# ceiling (7× the measured build) is superseded by
# TestPortsBindAscendingBytes and TestFluidDirAllocs, which pin the
# per-port and per-flow allocation it guarded against, and by the
# benchmark's hybrid_fluid/setup_s 25 % bound.
DETERMINISM_GRID = -quick -kinds ping,chaos,impair,hybrid,churn,scale -scenarios Central3 -seeds 1:2 \
	-loss 1 -loss-ge 1:25 -dup-pct 0.5 -chaos-flap-ms 30
determinism-cli:
	$(SWEEP) $(DETERMINISM_GRID) -workers 2 -json /tmp/netco-determinism-w2.json
	$(SWEEP) $(DETERMINISM_GRID) -workers 1 -json /tmp/netco-determinism-w1.json > /dev/null
	cmp /tmp/netco-determinism-w1.json /tmp/netco-determinism-w2.json
	$(SWEEP) $(DETERMINISM_GRID) -workers 1 -partitions 4 -settle-workers 2 \
		-json /tmp/netco-determinism-p4.json > /tmp/netco-determinism-p4.out
	cmp /tmp/netco-determinism-w1.json /tmp/netco-determinism-p4.json
	grep -q '4 partitions: .* epochs' /tmp/netco-determinism-p4.out
	grep -q '2 settle worker(s)' /tmp/netco-determinism-p4.out
	@echo "determinism-cli: artifacts byte-identical across workers, partitions and settle workers; flags reached the engines"

# fuzz-smoke is the scenario fuzzer's pre-merge budget: 200 randomized
# Byzantine scenarios through all four invariant oracles (masking,
# detection, no-forgery, determinism), then a sabotage pass that weakens
# the compare majority and demands the no-forgery oracle catch it — the
# self-test that proves the oracles have teeth. Finishes well inside 30s.
fuzz-smoke:
	$(GO) run ./cmd/netco-fuzz -n 200 -seed 1 -budget 25s
	$(GO) run ./cmd/netco-fuzz -n 5 -seed 42 -weaken -expect-catch

# chaos-smoke is the availability-fuzzer budget: randomized Byzantine
# scenarios with timed chaos plans (router crashes, compare restarts,
# link flaps) through the no-forgery, recovery and determinism oracles,
# then a replay of the checked-in chaos golden artifact — a crash, a
# flap train and a compare bounce layered over a drop adversary that
# must stay violation-free forever.
chaos-smoke:
	$(GO) run ./cmd/netco-fuzz -n 100 -seed 7 -chaos -budget 20s
	$(GO) test ./internal/harness/ -run TestHarnessReplay \
		-harness.replay=testdata/chaos-recovery.json

# impairment-smoke gates the impairment pipeline beyond what `race`
# already runs (the statistical validation suite, TestImpair*): an
# impaired fuzz pass — no-forgery and determinism oracles under trunk
# noise — plus a replay of the checked-in duplication golden artifact.
impairment-smoke:
	$(GO) run ./cmd/netco-fuzz -n 60 -seed 11 -impair -budget 20s
	$(GO) test ./internal/harness/ -run TestHarnessReplay \
		-harness.replay=testdata/impairment-dup.json

# fuzz is the long-running driver: native coverage-guided fuzzing over
# the scenario generator, then over the frame parser (hostile wire bytes
# through Unmarshal, re-marshal idempotence, the checksum kernel against
# its 16-bit reference). Interrupt with ^C; crashers land in
# internal/harness/testdata/fuzz/ and internal/packet/testdata/fuzz/ for
# go test to replay forever.
fuzz:
	$(GO) test ./internal/harness/ -fuzz=FuzzScenario -fuzztime 10m
	$(GO) test ./internal/packet/ -fuzz=FuzzUnmarshal -fuzztime 10m

# bench-guard runs the zero-allocation benchmark suite once per bench.
# The hard guarantees live in TestEngineIngestSteadyStateZeroAlloc and
# TestSchedulerSteadyStateZeroAlloc (run by `race` above); this target
# additionally exercises every benchmark body so a bench that starts
# allocating is noticed in its -benchmem output. FastKey, Checksum and
# Pattern are the per-frame byte kernels (0 allocs/op each).
bench-guard:
	$(GO) test -run '^$$' -bench 'SteadyState|Churn|FluidNewFlow|FluidStartWave|EngineExpire|FastKey|Checksum|Pattern' -benchtime 1x -benchmem \
		./internal/core/ ./internal/sim/ ./internal/netem/ ./internal/traffic/ ./internal/packet/
	$(GO) test -run '^$$' -bench 'FlowTableLookup|SwitchPipeline' -benchtime 1x -benchmem \
		./internal/openflow/ ./internal/switching/

# bench reproduces the headline end-to-end number recorded in BENCH_1.json.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkEngineIngest$$' -benchmem -benchtime 3s .

# bench-scale reproduces the parallel-engine scaling curve recorded in
# BENCH_5.json: cross-pod UDP over an 8-ary fat tree at partition counts
# {1,2,4,8,12}, one netco-sweep run each (build and run seconds, events/s
# and the engine's epoch counters on the console), every artifact
# compared byte for byte with the serial one.
bench-scale:
	for n in 1 2 4 8 12; do \
		$(SWEEP) -kinds scale -scenarios Central3 -arity 8 -workers 1 -partitions $$n \
			-json /tmp/netco-scale-p$$n.json && cmp /tmp/netco-scale-p1.json /tmp/netco-scale-p$$n.json || exit 1; \
	done

# bench-hybrid reproduces the hybrid-engine numbers recorded in
# BENCH_6.json: a 30-ary fluid fat tree (1125 switches, 101250 max-min
# fair rate-process flows) with 8 monitored flows expanded to real
# datagrams through the packet-exact k=3 combiner region.
# (-arity 90 -flows-per-host 6 is the BENCH_8.json 1M-flow point.)
bench-hybrid:
	$(SWEEP) -kinds hybrid -scenarios Central3 -arity 30 -flows-per-host 15 -workers 1

# bench-churn reproduces the churn-lifecycle numbers recorded in
# BENCH_10.json: the arity-90 fat tree (10125 switches, 182250 hosts)
# under 600k flow arrivals per sim-second for one simulated second —
# 1M+ lifecycle events per sim-second through arena-recycled flows,
# wheel-timed departures and per-component settle, serial then on two
# settle workers, the two artifacts compared byte for byte.
bench-churn:
	$(SWEEP) -kinds churn -scenarios Central3 -arity 90 -arrival-rate 600000 -workers 1 \
		-settle-workers 1 -json /tmp/netco-churn-s1.json
	$(SWEEP) -kinds churn -scenarios Central3 -arity 90 -arrival-rate 600000 -workers 1 \
		-settle-workers 2 -json /tmp/netco-churn-s2.json
	cmp /tmp/netco-churn-s1.json /tmp/netco-churn-s2.json

# bench-flows measures the flow classifier: tuple-space lookup vs the
# seed's linear scan at 8/64/512 rules, plus the whole switch ingress
# pipeline, every packet carrying a fresh IP ID. (BENCH_3.json recorded
# the retired two-tier classifier on replayed packets; bench/baseline.json
# supersedes it.) The classifier differential test and the zero-alloc
# guards run as part of `race` above.
bench-flows:
	$(GO) test -run '^$$' -bench 'FlowTableLookup' -benchmem -benchtime 1s ./internal/openflow/
	$(GO) test -run '^$$' -bench 'SwitchPipeline' -benchmem -benchtime 1s ./internal/switching/

# loc prints the three numbers ROADMAP scores a simplicity round on:
# non-test Go lines outside bench/, flags across the two experiment CLIs
# (counted from their own -h output), and the legs of `make check`.
loc:
	@echo "non-test Go lines outside bench/: $$(find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)"
	@echo "CLI flags (netco-bench + netco-sweep): $$(( $$($(GO) run ./cmd/netco-bench -h 2>&1 | grep -c '^  -') + $$($(SWEEP) -h 2>&1 | grep -c '^  -') ))"
	@echo "make check legs: $$(sed -n 's/^check: //p' Makefile | wc -w)"
