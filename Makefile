GO ?= go

.PHONY: check vet build test race bench-guard determinism-cli fuzz fuzz-smoke paper loc reach

SWEEP = $(GO) run ./cmd/netco-sweep

# check is the pre-merge gate, six legs: static checks, the full test
# suite under the race detector — which holds the determinism matrix,
# TestDeterminismMatrix: every experiment-registry row × sweep workers ×
# partitions × settle workers × GOMAXPROCS × run-twice, same bytes —
# the allocation-guard benchmarks (one iteration each: they exist to run
# the b.ReportAllocs paths, not to produce stable timings), one CLI leg
# proving the execution flags reach the engines, and the scenario
# fuzzer's smoke (plain, sabotaged, chaos and impaired passes, then the
# two golden replays). CI (.github/workflows/ci.yml) runs these same
# targets, one per step.
check: vet build race bench-guard determinism-cli fuzz-smoke

# vet also fails on any file gofmt would rewrite, and on any fused
# multiply-add in ./internal/... on the FMA_ARCHS. The Go spec lets a
# compiler fuse x*y + z into one rounding, which amd64 never does and
# these targets do, so one fused site is a digest that differs by
# machine; an explicit float64(x*y) forbids it. The check cross-compiles
# with -S (the listing replays from the build cache on a cached build)
# and fails on every fused opcode at any position: stdlib only, no
# emulator.
FMA_ARCHS = arm64 ppc64le s390x
FMA_OPS = [[:space:]](FN?M(ADD|SUB)(S|D|CC)?|WFN?M[AS][DS]B)[[:space:]]
vet:
	$(GO) vet ./...
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l:"; gofmt -l .; exit 1; }
	@for arch in $(FMA_ARCHS); do \
		bad=$$( { GOARCH=$$arch $(GO) build -gcflags=-S ./internal/... 2>&1 || echo "GOARCH=$$arch go build failed"; } | \
			grep -E '$(FMA_OPS)|go build failed$$'); \
		test -z "$$bad" || { echo "$$bad"; echo "vet: the fused multiply-add check failed on $$arch"; exit 1; }; \
	done

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the whole suite — including the parallel runner and the
# cross-goroutine scheduler tests — under the race detector. The
# second invocation repeats the partitioned-engine suites and the
# determinism matrix (whose sweep pool and settle workers would
# otherwise race only on the runner's default P count) on exactly two
# Ps: on one P the engine's default is one worker, every epoch runs
# inline, and the worker goroutines' hand-offs would go unraced — as
# would a crossing packet pool's (TestCrossingPoolHandoff), taken from on
# one goroutine and refilled from another.
race:
	$(GO) test -race ./...
	GOMAXPROCS=2 $(GO) test -race ./internal/sim/... ./internal/netem/ ./internal/experiment/ ./internal/packet/ \
		-run 'Parallel|Partition|Handoff|Scale|DeterminismMatrix'

# determinism-cli is the one CLI leg of the determinism check (the matrix
# itself runs in-process under `race`): a quick grid over a packet kind,
# the chaos and impair kinds at a live grid point, and the three
# fat-tree kinds, through netco-sweep at -workers 2, at -workers 1, and
# on 4 partitions with 2 settle workers — same artifact bytes each time.
# Equal bytes alone would also pass if a flag were dropped on the floor,
# so the leg also greps the console's host-time lines for the epoch
# counters only a partitioned engine prints and for the settle-worker
# count.
DETERMINISM_GRID = -quick -kinds ping,chaos,impair,hybrid,churn,scale -scenarios Central3 -seeds 1:2 \
	-loss 1 -loss-ge 1:25 -dup-pct 0.5 -chaos-flap-ms 30
# Its artifacts go to a fresh temporary directory, so concurrent runs of
# the leg never share a file.
determinism-cli:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && set -ex && \
	$(SWEEP) $(DETERMINISM_GRID) -workers 2 -json "$$d/w2.json" && \
	$(SWEEP) $(DETERMINISM_GRID) -workers 1 -json "$$d/w1.json" > /dev/null && \
	cmp "$$d/w1.json" "$$d/w2.json" && \
	$(SWEEP) $(DETERMINISM_GRID) -workers 1 -partitions 4 -settle-workers 2 \
		-json "$$d/p4.json" > "$$d/p4.out" && \
	cmp "$$d/w1.json" "$$d/p4.json" && \
	grep -q '4 partitions: .* epochs' "$$d/p4.out" && \
	grep -q '2 settle worker(s)' "$$d/p4.out"
	@echo "determinism-cli: artifacts byte-identical across workers, partitions and settle workers; flags reached the engines"

# fuzz-smoke is the scenario fuzzer's pre-merge budget, four passes and
# two goldens. 200 randomized Byzantine scenarios through all four
# invariant oracles (masking, detection, no-forgery, determinism); a
# sabotage pass that weakens the compare majority and demands the
# no-forgery oracle catch it — the self-test that proves the oracles
# have teeth — whose shrunk counterexample is written to a temporary
# directory and replayed, so the shrinker and the artifact round trip
# that made the checked-in goldens run on every check; a chaos pass (router crashes, compare restarts, link flaps
# on a timed plan) through the no-forgery, recovery and determinism
# oracles; an impaired pass (no-forgery and determinism under trunk
# noise, beyond the statistical suite TestImpair* that `race` runs).
# Then the checked-in golden artifacts replay: a crash, a flap train and
# a compare bounce layered over a drop adversary, and a duplicating
# trunk, both violation-free forever.
fuzz-smoke:
	$(GO) run ./cmd/netco-fuzz -n 200 -seed 1 -budget 25s
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && set -ex && \
	$(GO) run ./cmd/netco-fuzz -n 5 -seed 42 -weaken -expect-catch -artifacts "$$d" && \
	ce=$$(ls "$$d"/ce-*.json | head -n 1) && \
	{ test -n "$$ce" || { echo "fuzz-smoke: the weaken pass wrote no ce-*.json"; exit 1; }; } && \
	$(GO) test ./internal/harness/ -run TestHarnessReplay -harness.replay="$$ce"
	$(GO) run ./cmd/netco-fuzz -n 100 -seed 7 -chaos -budget 20s
	$(GO) run ./cmd/netco-fuzz -n 60 -seed 11 -impair -budget 20s
	$(GO) test ./internal/harness/ -run TestHarnessReplay \
		-harness.replay=testdata/chaos-recovery.json
	$(GO) test ./internal/harness/ -run TestHarnessReplay \
		-harness.replay=testdata/impairment-dup.json

# fuzz is the long-running driver: native coverage-guided fuzzing over
# the scenario generator, then over the frame parser (hostile wire bytes
# through Unmarshal, re-marshal idempotence, the checksum kernel against
# its 16-bit reference), then over the OpenFlow decoder (hostile control
# messages through Decode; an accepted one must re-encode into one it
# accepts). Interrupt with ^C; crashers land in the package's
# testdata/fuzz/ for go test to replay forever.
fuzz:
	$(GO) test ./internal/harness/ -fuzz=FuzzScenario -fuzztime 10m
	$(GO) test ./internal/packet/ -fuzz=FuzzUnmarshal -fuzztime 10m
	$(GO) test ./internal/openflow/ -fuzz=FuzzDecode -fuzztime 10m

# bench-guard runs the zero-allocation benchmark suite once per bench.
# The hard guarantees live in TestEngineIngestSteadyStateZeroAlloc,
# TestSchedulerSteadyStateZeroAlloc and TestPacketPathSteadyStateAllocs
# (run by `race` above); this target additionally exercises every
# benchmark body so a bench that starts allocating is noticed in its
# -benchmem output. PacketPath prices one warm 10 ms window of a Central3
# UDP and a TCP flow, source to sink through the combiner, serial and on
# two partitions; its allocs/op is the per-packet tier's residue (0 once
# every node ends its holds), plus on two Ps the partitioned engine's
# per-call worker goroutines and channels (9 per window).
# FastKey, Checksum and
# Pattern are the per-frame byte kernels (0 allocs/op each);
# SchedulerDepth prices an event beside 16, 256 and 4,096 far-future
# ones (run it with a real -benchtime to see that the cost stays flat);
# SchedulerChurn/Lifecycle prices a churn epoch's departures, 1,024
# AtCall events armed ahead and drained.
# FluidFabricBuild reports the B/op and allocs/op of an arity-16 fluid
# fabric, the footprint TestLinkSize and TestNewHostAllocs pin per part;
# FluidBulkSettle prices one settle of that fabric's 6,144 flows in
# ns/flow (the settle allocates nothing; a 1x run shows the epoch
# timer's first use of a scheduler bucket), FluidTeardown the settle
# after all of them stop, FluidGrowSettle the settle that starts the last
# quarter of them.
bench-guard:
	$(GO) test -run '^$$' -bench 'SteadyState|PacketPath|Churn|SchedulerDepth|FluidNewFlow|FluidStartWave|EngineExpire|FastKey|Checksum|Pattern|FluidFabricBuild|FluidBulkSettle|FluidTeardown|FluidGrowSettle' -benchtime 1x -benchmem \
		./internal/core/ ./internal/sim/ ./internal/netem/ ./internal/traffic/ ./internal/packet/ ./internal/experiment/
	$(GO) test -run '^$$' -bench 'FlowTableLookup|SwitchPipeline' -benchtime 1x -benchmem \
		./internal/openflow/ ./internal/switching/

# paper regenerates the paper's evaluation — §V's Table I and Figs. 4–8,
# the k sweep and the DoS defences, the §VI case study and the §VII
# virtualized combiner — over all six scenarios, measured beside
# published on the console and in full in paper.json; then the §IX
# architecture comparison. Add -full for the 10 s × 10-run methodology.
paper:
	$(SWEEP) -kinds tcp,udp,load,ping,jitter,ksweep,dos,casestudy,virtual -scenarios all -json paper.json
	$(SWEEP) -kinds tcp,udp,ping -scenarios Central3,Inline3,POX3

# loc prints the numbers ROADMAP scores a simplicity round on: non-test
# Go lines outside bench/ and the panic( sites among them, the cmd/
# binaries, the experiment CLI's flags (counted from its own -h output),
# the settable fields of the option structs (counted from go doc, one per
# exported name), the legs of `make check`, and the byte sizes of the two
# long documents.
OPTION_STRUCTS = experiment.Params experiment.Sizing experiment.HybridParams traffic.FluidConfig \
	netem.LinkConfig core.CompareNodeConfig core.Config traffic.TCPConfig traffic.UDPSourceConfig \
	traffic.PingerConfig core.EdgeConfig core.MiddleboxConfig core.VirtualEdgeConfig switching.Config
loc:
	@echo "non-test Go lines outside bench/: $$(find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)"
	@echo "non-test panic( sites outside bench/: $$(find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' | xargs cat | grep -o 'panic(' | wc -l)"
	@echo "cmd/ binaries: $$(ls cmd | wc -l)"
	@echo "CLI flags (netco-sweep): $$($(SWEEP) -h 2>&1 | grep -c '^  -')"
	@for t in $(OPTION_STRUCTS); do \
		echo "settable fields ($$t): $$($(GO) doc ./internal/$${t%.*} $${t#*.} | sed -n '/^type/,/^}/p' | \
			grep -oE '^[[:space:]]+[A-Z][[:alnum:]_]*(, [A-Z][[:alnum:]_]*)*' | tr ',' '\n' | wc -l)"; \
	done
	@echo "make check legs: $$(sed -n 's/^check: //p' Makefile | wc -w)"
	@echo "doc bytes: DESIGN.md $$(wc -c < DESIGN.md), EXPERIMENTS.md $$(wc -c < EXPERIMENTS.md)"

# reach lists the production code no end-to-end command reaches, the
# evidence a simplicity deletion starts from. It builds coverage-
# instrumented netco-sweep, netco-fuzz, the examples and ./bench into a
# temporary directory, then runs from there: netco-sweep -h, the quick
# all-kinds sweep over all seven scenarios, the determinism grid on 4
# partitions with 2 settle workers and its JSON artifact, the §VII
# virtual kind on 4 partitions, the full-calibration POX3 TCP run, the
# four netco-fuzz passes of fuzz-smoke (the weaken pass writing its
# shrunk counterexamples), the five examples, and each bench workload
# for one second, plain and traced. It keys every non-test function
# outside bench/ at 0.0 % as import-path.Func (methods as Type.Method)
# and compares the list with the committed unreached.txt: it prints the
# count and the names added and removed, rewrites unreached.txt with the
# fresh list, and fails when a name was added. A change that deletes
# code, or leaves a new function unreached on purpose, commits the
# rewritten list. A few minutes; not a check leg.
REACH_SCENARIOS = Linespeed,Central3,Central5,POX3,Dup3,Dup5,Inline3
REACH_WORKLOADS = central3_udp central3_tcp fattree_udp fattree_udp_par2 hybrid_fluid churn_fluid
reach:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && mkdir "$$d/bin" "$$d/cov" "$$d/ce" && \
	$(GO) build -cover -coverpkg=./... -o "$$d/bin/" ./cmd/netco-sweep ./cmd/netco-fuzz ./examples/... ./bench && \
	( cd "$$d" && export GOCOVERDIR="$$d/cov" && set -e; \
		bin/netco-sweep -h; \
		bin/netco-sweep -quick -kinds all -scenarios $(REACH_SCENARIOS) -workers 1; \
		bin/netco-sweep $(DETERMINISM_GRID) -workers 1 -partitions 4 -settle-workers 2 -json "$$d/grid.json"; \
		bin/netco-sweep -quick -kinds virtual -scenarios Central3 -workers 1 -partitions 4; \
		bin/netco-sweep -full -kinds tcp -scenarios POX3 -workers 1; \
		bin/netco-fuzz -n 200 -seed 1 -budget 25s; \
		bin/netco-fuzz -n 5 -seed 42 -weaken -expect-catch -artifacts "$$d/ce"; \
		bin/netco-fuzz -n 100 -seed 7 -chaos -budget 20s; \
		bin/netco-fuzz -n 60 -seed 11 -impair -budget 20s; \
		for e in $$(ls $(CURDIR)/examples); do bin/$$e; done; \
		for w in $(REACH_WORKLOADS); do \
			bin/bench -workload $$w -seconds 1; bin/bench -workload $$w -seconds 1 -trace 1; \
		done ) > "$$d/log" 2>&1 || { tail -20 "$$d/log"; echo "reach: a command failed"; exit 1; }; \
	$(GO) tool covdata func -i="$$d/cov" | \
		awk '$$NF == "0.0%" && $$1 !~ /^netco\/bench\// { p = $$1; sub(/\/[^\/]*\.go:[0-9]+:$$/, "", p); f = $$2; sub(/^\*/, "", f); print p "." f }' | \
		LC_ALL=C sort -u > "$$d/now" && \
	echo "unreached non-test functions outside bench/: $$(wc -l < "$$d/now")" && \
	LC_ALL=C comm -23 unreached.txt "$$d/now" | sed 's/^/removed: /' && \
	LC_ALL=C comm -13 unreached.txt "$$d/now" | sed 's/^/added:   /' > "$$d/added" && \
	cat "$$d/added" && cp "$$d/now" unreached.txt && test ! -s "$$d/added"
