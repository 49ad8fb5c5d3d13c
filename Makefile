GO ?= go

.PHONY: check vet build test race bench-guard bench bench-flows bench-scale bench-hybrid bench-churn sweep-smoke hybrid-smoke scale-smoke hybrid-bench-smoke hybrid-scale-smoke churn-smoke fuzz fuzz-smoke chaos-smoke impairment-smoke

# check is the pre-merge gate: static checks, the full test suite under
# the race detector (with scratch poisoning on, so retained engine events
# fail loudly), the allocation-guard benchmarks (one iteration each —
# they exist to run the b.ReportAllocs paths and the AllocsPerRun guards
# embedded in the test run, not to produce stable timings), an
# end-to-end parallel sweep smoke run, the hybrid-engine digest-stability
# smoke, the quick scale and hybrid bench runs, the scenario-fuzzer smoke,
# the chaos-lifecycle smoke, and the impairment-pipeline smoke. CI
# (.github/workflows/ci.yml) runs these same targets, one per step.
check: vet build race bench-guard sweep-smoke hybrid-smoke scale-smoke hybrid-bench-smoke hybrid-scale-smoke churn-smoke fuzz-smoke chaos-smoke impairment-smoke

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
# second invocation repeats the partitioned-engine suites on exactly two
# Ps, whatever the runner's default: on one P the engine's default is one
# worker, every epoch runs inline, and the worker goroutines' hand-offs
# would go unraced.
race:
	NETCO_POISON_SCRATCH=1 $(GO) test -race ./...
	GOMAXPROCS=2 NETCO_POISON_SCRATCH=1 $(GO) test -race ./internal/sim/... ./internal/netem/ ./internal/experiment/ \
		-run 'Parallel|Partition|Handoff|Scale'

# sweep-smoke runs a tiny 2-worker grid end to end through the CLI and
# verifies the artifact is byte-identical to a single-worker run, then
# re-runs the grid on the partitioned parallel engine (-partitions 4)
# and demands the same bytes again — the CLI leg of the differential
# determinism suite (the in-process legs run under `race` above). The
# chaos kind puts router cold restarts (FlowTable.Reset cancelling
# per-entry expiry timers) on the partitioned engine's domain schedulers.
sweep-smoke:
	$(GO) run ./cmd/netco-sweep -quick -kinds ping,chaos -scenarios Linespeed,Central3 \
		-seeds 1:2 -workers 2 -json /tmp/netco-sweep-smoke-w2.json
	$(GO) run ./cmd/netco-sweep -quick -kinds ping,chaos -scenarios Linespeed,Central3 \
		-seeds 1:2 -workers 1 -json /tmp/netco-sweep-smoke-w1.json > /dev/null
	cmp /tmp/netco-sweep-smoke-w1.json /tmp/netco-sweep-smoke-w2.json
	$(GO) run ./cmd/netco-sweep -quick -kinds ping,chaos -scenarios Linespeed,Central3 \
		-seeds 1:2 -workers 1 -partitions 4 -json /tmp/netco-sweep-smoke-p4.json > /dev/null
	cmp /tmp/netco-sweep-smoke-w1.json /tmp/netco-sweep-smoke-p4.json
	@echo "sweep-smoke: artifacts byte-identical across worker and partition counts"

# hybrid-smoke is the hybrid engine's CLI determinism leg: the same
# quick hybrid grid (2 seeds) through netco-sweep at -workers 1 and 4
# must produce byte-identical JSON artifacts — runs, merged summaries
# and merged histogram sketches included. The hybrid engine itself is
# serial (one scheduler per run; -partitions is a documented no-op for
# it), so workers only reorder completion, never results.
hybrid-smoke:
	$(GO) run ./cmd/netco-sweep -quick -kinds hybrid -scenarios Central3 \
		-seeds 1:2 -workers 4 -json /tmp/netco-hybrid-smoke-w4.json
	$(GO) run ./cmd/netco-sweep -quick -kinds hybrid -scenarios Central3 \
		-seeds 1:2 -workers 1 -json /tmp/netco-hybrid-smoke-w1.json > /dev/null
	cmp /tmp/netco-hybrid-smoke-w1.json /tmp/netco-hybrid-smoke-w4.json
	@echo "hybrid-smoke: hybrid digests and histograms byte-identical across worker counts"

# scale-smoke is the partitioned engine's CLI digest check: the quick
# fat-tree scaling run, which exits nonzero if any partition count's
# observation digest diverges from the serial one — in whichever way
# (worker goroutines or inline) the engine chose to execute each epoch;
# the rows print how many ran inline. It asserts nothing about speed.
scale-smoke:
	$(GO) run ./cmd/netco-bench -scale -quick

# hybrid-bench-smoke runs the quick hybrid fluid/packet scenario twice
# through netco-bench, which exits nonzero if the digests diverge.
hybrid-bench-smoke:
	$(GO) run ./cmd/netco-bench -hybrid -quick

# hybrid-scale-smoke is the scale path's regression guard: a 40-ary
# hybrid run (2000 switches, 96000 fluid flows, 1 simulated second) that
# the bench runs twice, exiting nonzero if the digests diverge or the
# topology build (topo+wire+flows) exceeds the 1000 ms ceiling — about
# 7x the measured build (117-249 ms over ten runs, median 144 ms, on a
# 2-core VM and at GOMAXPROCS=1 alike; not measured on the CI runner,
# which is why the ceiling is no tighter), so it trips on an accidental
# return to per-flow or per-port allocation, not on scheduler jitter.
hybrid-scale-smoke:
	$(GO) run ./cmd/netco-bench -hybrid -hybrid-arity 40 -hybrid-flows-per-host 6 \
		-hybrid-build-budget-ms 1000
	@echo "hybrid-scale-smoke: 96k-flow digest bit-identical, build inside budget"

# churn-smoke gates the churn-scale flow lifecycle engine: the fluid
# allocator's recycle/conservation/hysteresis tests, its direction-lookup
# tests (index table vs map fallback) and steady-state allocation
# guards, then a quick netco-bench churn run whose digest —
# per-epoch live flow rates, live counts and settle counts — must be
# bit-identical between serial and 4-worker parallel settle (the bench
# exits nonzero on divergence).
churn-smoke:
	$(GO) test ./internal/traffic/ -run 'TestFluidFlowRecycle|TestFluidChurn|TestFluidDir|TestFluidDemoteHysteresis|TestFluidSettleSteadyStateAllocs' -count 1
	$(GO) run ./cmd/netco-bench -churn -quick -churn-workers 4
	@echo "churn-smoke: lifecycle accounting clean, digest bit-identical serial vs parallel settle"

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

# impairment-smoke gates the impairment pipeline: the statistical
# validation suite (per-stage loss/dup/corrupt/reorder rates against
# analytic bounds at fixed seeds), an impaired fuzz pass (no-forgery and
# determinism oracles under trunk noise plus the checked-in duplication
# golden artifact), and a CLI leg — an impaired chaos grid whose JSON
# artifact must be byte-identical between a 1-worker and a 2-worker run.
impairment-smoke:
	$(GO) test ./internal/netem/ -run 'TestImpair' -count 1
	$(GO) run ./cmd/netco-fuzz -n 60 -seed 11 -impair -budget 20s
	$(GO) test ./internal/harness/ -run TestHarnessReplay \
		-harness.replay=testdata/impairment-dup.json
	$(GO) run ./cmd/netco-sweep -quick -kinds impair,chaos -scenarios Central3 \
		-seeds 1:2 -loss 1 -loss-ge 1:25 -dup-pct 0.5 -corrupt-pct 0.2 -reorder-ms 1 \
		-chaos-flap-ms 30 -workers 2 -json /tmp/netco-impair-smoke-w2.json
	$(GO) run ./cmd/netco-sweep -quick -kinds impair,chaos -scenarios Central3 \
		-seeds 1:2 -loss 1 -loss-ge 1:25 -dup-pct 0.5 -corrupt-pct 0.2 -reorder-ms 1 \
		-chaos-flap-ms 30 -workers 1 -json /tmp/netco-impair-smoke-w1.json > /dev/null
	cmp /tmp/netco-impair-smoke-w1.json /tmp/netco-impair-smoke-w2.json
	@echo "impairment-smoke: statistics in bounds, oracles clean under noise, artifacts byte-identical"

# fuzz is the long-running driver: native coverage-guided fuzzing over
# the scenario generator. Interrupt with ^C; crashers land in
# internal/harness/testdata/fuzz/ for go test to replay forever.
fuzz:
	$(GO) test ./internal/harness/ -fuzz=FuzzScenario -fuzztime 10m

# bench-guard runs the zero-allocation benchmark suite once per bench.
# The hard guarantees live in TestEngineIngestSteadyStateZeroAlloc and
# TestSchedulerSteadyStateZeroAlloc (run by `race` above); this target
# additionally exercises every benchmark body so a bench that starts
# allocating is noticed in its -benchmem output.
bench-guard:
	$(GO) test -run '^$$' -bench 'SteadyState|Churn|FluidNewFlow|EngineExpire' -benchtime 1x -benchmem \
		./internal/core/ ./internal/sim/ ./internal/traffic/
	$(GO) test -run '^$$' -bench 'FlowTableLookup|SwitchPipeline' -benchtime 1x -benchmem \
		./internal/openflow/ ./internal/switching/

# bench reproduces the headline end-to-end number recorded in BENCH_1.json.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkEngineIngest$$' -benchmem -benchtime 3s .

# bench-scale reproduces the parallel-engine scaling curve recorded in
# BENCH_5.json: cross-pod UDP over an 8-ary fat tree at partition counts
# {1,2,4,8,12}, asserting the observation digest is bit-identical to the
# serial run at every count (the bench exits nonzero on divergence).
bench-scale:
	$(GO) run ./cmd/netco-bench -scale

# bench-hybrid reproduces the hybrid-engine numbers recorded in
# BENCH_6.json: a 30-ary fluid fat tree (1125 switches, 101250 max-min
# fair rate-process flows) with 8 monitored flows expanded to real
# datagrams through the packet-exact k=3 combiner region. The bench
# runs the scenario twice and exits nonzero if the digests diverge.
bench-hybrid:
	$(GO) run ./cmd/netco-bench -hybrid

# bench-churn reproduces the churn-lifecycle numbers recorded in
# BENCH_10.json: the arity-90 fat tree (10125 switches, 182250 hosts)
# under 600k flow arrivals per sim-second for one simulated second —
# 1M+ lifecycle events per sim-second through arena-recycled flows,
# wheel-timed departures and per-component parallel settle. The bench
# runs serial first and exits nonzero if the parallel digest diverges.
bench-churn:
	$(GO) run ./cmd/netco-bench -churn

# bench-flows measures the flow classifier: tuple-space lookup vs the
# seed's linear scan at 8/64/512 rules, plus the whole switch ingress
# pipeline, every packet carrying a fresh IP ID. (BENCH_3.json recorded
# the retired two-tier classifier on replayed packets; bench/baseline.json
# supersedes it.) The classifier differential test and the zero-alloc
# guards run as part of `race` above.
bench-flows:
	$(GO) test -run '^$$' -bench 'FlowTableLookup' -benchmem -benchtime 1s ./internal/openflow/
	$(GO) test -run '^$$' -bench 'SwitchPipeline' -benchmem -benchtime 1s ./internal/switching/
