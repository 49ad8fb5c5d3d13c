package experiment

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"time"

	"netco/internal/sim"
	"netco/internal/traffic"
)

// The churn engine measures the fluid tier's flow *lifecycle*
// throughput: how many arrivals and departures per simulated second the
// allocator sustains over a full fat tree's routing while staying exact. It
// leans on four mechanisms built for it:
//
//   - arena-recycled flows: FluidNet free-lists released flow objects
//     (and this engine free-lists its churnFlow records), so steady-
//     state churn allocates nothing per flow;
//   - recycled directions: FluidNet frees a direction no flow crosses
//     and its table entry reads 0, so the run holds what live flows cross;
//   - parallel per-component settle: flows live about two epochs, so
//     nearly every one is a dirty seed at every settle, which solves
//     thousands of small components (about 5,460 at arity 60, 8,300
//     live). SettleWorkers fans out their fill, bit-identical to serial,
//     but the fill is 4-6 % of the CPU: the walk and arrivals cost more;
//   - allocation-free departures: each flow's departure is one
//     Scheduler.AtCall event carrying the record pointer, so arming
//     and firing it reuse the scheduler's event arena.
//
// The workload is an M/G/∞-style open system: Poisson-batched arrivals
// (ChurnArrivals per sim-second, batched into churnWavesPerEpoch
// scheduler events per epoch), flow sizes mixing exponential mice with Pareto
// α=1.5 elephants around ChurnMeanBytes, and a departure armed at
// arrival + size/FlowDemand. Under contention a flow delivers less
// than its drawn size in that window — the model fixes *lifetimes*,
// not byte counts, so the lifecycle rate is a control variable rather
// than an outcome. Everything random is drawn from one sim.RNG seeded
// by Params.Seed in event order, so a run is a pure function of its
// inputs; the digest folds per-epoch allocator state and must be
// bit-identical at any SettleWorkers count and under the fluid tier's
// test oracle, which re-solves every component at every settle.

// ChurnResult is one churn run's outcome.
type ChurnResult struct {
	Arity         int `json:"arity"`
	Hosts         int `json:"hosts"`
	Switches      int `json:"switches"`
	SettleWorkers int `json:"settle_workers"`

	// Arrivals and Departures count natural lifecycle events inside
	// Duration (the end-of-run drain releases EndLive flows without
	// counting them). PeakLive is the high-water concurrent flow count.
	Arrivals   uint64 `json:"arrivals"`
	Departures uint64 `json:"departures"`
	EndLive    int    `json:"end_live"`
	PeakLive   int    `json:"peak_live"`

	// Recycled counts flow objects served from the allocator's free
	// list — arrivals minus the arena's high-water mark.
	Recycled uint64 `json:"recycled"`

	Events           uint64 `json:"events"`
	Settles          uint64 `json:"settles"`
	ComponentsSolved uint64 `json:"components_solved"`
	// WheelExpired counts departure events that fired, drained flows'
	// included; WheelPending is what remained armed past the drain
	// (flows whose deadline outlived the run). The names and the
	// churn_wheel_expired artifact key outlive the timer wheel that
	// once armed departures, because the bench harness reads them.
	WheelExpired uint64 `json:"wheel_expired"`
	WheelPending int    `json:"wheel_pending"`

	// DeliveredBits totals every flow's delivered traffic; after the
	// drain all of it sits in the allocator's retired accumulator.
	DeliveredBits float64 `json:"delivered_bits"`

	ArrivalsPerSimSec        float64 `json:"arrivals_per_sim_s"`
	LifecycleEventsPerSimSec float64 `json:"lifecycle_events_per_sim_s"`

	// BuildTopoMS times the direction table (provenance only). BuildWireMS
	// is always 0, kept because the bench harness reads it.
	BuildTopoMS float64 `json:"build_topo_ms"`
	BuildWireMS float64 `json:"build_wire_ms"`

	// Digest is the determinism witness: FNV-64a over per-epoch
	// (live flow rate bits, live count, settles) samples plus the final
	// accounting, bit-identical across SettleWorkers counts and the
	// fluid tier's test oracle.
	Digest string `json:"digest"`
}

// churnFlow is the engine's per-flow record. Records are free-listed
// like the fluid flows they wrap, so steady-state churn reuses both.
type churnFlow struct {
	fluid *traffic.FluidFlow
	pos   int // index in the live list; -1 when free
}

type churnEngine struct {
	sched *sim.Scheduler
	fn    *traffic.FluidNet
	tree  fatTreeDirs
	rng   *sim.RNG
	hp    HybridParams

	live     []*churnFlow
	free     []*churnFlow
	peakLive int

	arrivals, departures uint64
	fired                uint64  // departure events run, drained flows' included
	carry                float64 // fractional arrivals carried wave to wave

	waveFn   func()
	sampleFn func()

	departCall sim.CallFunc
	pathBuf    []int32
	rates      []float64 // sample's copy of the live rates

	digest  *fnvFold
	samples int
}

// fnvFold is a tiny helper folding uint64s into an FNV-64a stream.
type fnvFold struct {
	h   hash.Hash64
	buf [8]byte
}

func newFnvFold() *fnvFold { return &fnvFold{h: fnv.New64a()} }

func (f *fnvFold) put(v uint64) {
	for b := 0; b < 8; b++ {
		f.buf[b] = byte(v >> (8 * b))
	}
	f.h.Write(f.buf[:])
}

// churnWavesPerEpoch batches arrivals: one scheduler event per wave
// starts every flow due in that fraction of an epoch.
const churnWavesPerEpoch = 4

// paretoAlpha is the shape of churn's elephant sizes.
const paretoAlpha = 1.5

// drawSize draws one flow size (bytes): exponential mice, with
// probability ChurnParetoFrac a Pareto α=1.5 elephant, both with mean
// ChurnMeanBytes. The math.Pow call is pinned to its amd64 results
// (TestLibmPinned): the digests depend on it bit for bit.
func (e *churnEngine) drawSize() float64 {
	mean := e.hp.ChurnMeanBytes
	if e.hp.ChurnParetoFrac > 0 && e.rng.Float64() < e.hp.ChurnParetoFrac {
		const alpha = paretoAlpha
		xm := mean * (alpha - 1) / alpha // Pareto mean is α·xm/(α−1)
		return xm / math.Pow(1-e.rng.Float64(), 1/alpha)
	}
	return mean * e.rng.ExpFloat64()
}

// arrive starts one flow: pick endpoints (pod-local unless the
// ChurnCrossFrac draw routes it through the core), recycle or allocate
// a record, register the fluid flow, and arm its departure. The event
// carries the record pointer directly — no closure, no allocation on
// the steady-state path.
func (e *churnEngine) arrive(now time.Duration) {
	t := &e.tree
	srcG := e.rng.Intn(t.hosts)
	sp, sl := srcG/t.perPod, srcG%t.perPod
	var dstG int
	if e.hp.ChurnCrossFrac > 0 && e.rng.Float64() < e.hp.ChurnCrossFrac {
		dp := (sp + 1 + e.rng.Intn(t.arity-1)) % t.arity
		dstG = dp*t.perPod + e.rng.Intn(t.perPod)
	} else {
		dl := e.rng.Intn(t.perPod - 1)
		if dl >= sl {
			dl++
		}
		dstG = sp*t.perPod + dl
	}

	var cf *churnFlow
	if n := len(e.free); n > 0 {
		cf = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		cf = &churnFlow{}
	}
	e.pathBuf = t.path(srcG, dstG, e.pathBuf[:0])
	cf.fluid = e.fn.NewFlowDirs(e.hp.FlowDemand, e.pathBuf)
	cf.fluid.Start()
	cf.pos = len(e.live)
	e.live = append(e.live, cf)
	if len(e.live) > e.peakLive {
		e.peakLive = len(e.live)
	}
	e.arrivals++

	// Go leaves converting a float outside int64 (+Inf when FlowDemand is
	// 0, or a low demand meeting a Pareto tail) to the architecture: amd64
	// yields MinInt64, arm64 saturates. Saturating in float first makes
	// such a flow never depart on every machine; a lifetime that rounds to
	// zero or below departs at the 1 µs floor.
	life := time.Microsecond
	switch ns := 8 * e.drawSize() / e.hp.FlowDemand * float64(time.Second); {
	case !(ns < float64(math.MaxInt64)):
		life = math.MaxInt64
	case ns >= 1:
		life = time.Duration(ns)
	}
	at := time.Duration(math.MaxInt64)
	if life < at-now {
		at = now + life
	}
	e.sched.AtCall(at, e.departCall, cf, nil, 0)
}

// depart is the departure event: release the flow back to the arena.
// Records already force-released by the drain are skipped.
func (e *churnEngine) depart(a0, _ any, _ int) {
	e.fired++
	cf := a0.(*churnFlow)
	if cf.pos < 0 {
		return
	}
	e.remove(cf)
	e.departures++
}

// remove releases cf's fluid flow and returns the record to the free
// list (live-list swap removal, like the allocator's own flow list).
func (e *churnEngine) remove(cf *churnFlow) {
	cf.fluid.Release()
	last := len(e.live) - 1
	moved := e.live[last]
	e.live[cf.pos] = moved
	moved.pos = cf.pos
	e.live[last] = nil
	e.live = e.live[:last]
	cf.pos = -1
	cf.fluid = nil
	e.free = append(e.free, cf)
}

// wave is the batched-arrival event: start every flow due in the
// interval (rate × interval, with the fractional remainder carried so
// the long-run rate is exact), then re-arm until Duration.
func (e *churnEngine) wave() {
	now := e.sched.Now()
	every := e.hp.Epoch / churnWavesPerEpoch
	n := float64(e.hp.ChurnArrivals*every.Seconds()) + e.carry
	k := int(n)
	e.carry = n - float64(k)
	for i := 0; i < k; i++ {
		e.arrive(now)
	}
	if now+every < e.hp.Duration {
		e.sched.After(every, e.waveFn)
	}
}

// sample folds the allocator's observable state into the digest just
// before each epoch boundary (1µs early, so it never ties with settle
// events). Any divergence in any settle — a rate, an accrual, a
// recycle — shows up here.
func (e *churnEngine) sample() {
	// Fold every live flow's settled rate, in live-list order. Rates are
	// the quantity the settle invariant pins bit for bit across worker
	// counts and under the test oracle; accrued bits are not (the oracle
	// re-accrues every flow each settle, segmenting the same rate·time
	// integral differently in float arithmetic). The
	// live-list order itself is deterministic — it is a pure function of
	// the arrival/departure event sequence, which the digest inputs fix.
	// The rates are copied out first, so their cache misses overlap
	// instead of each waiting on the hash.
	e.rates = e.rates[:0]
	for _, cf := range e.live {
		e.rates = append(e.rates, cf.fluid.Rate())
	}
	for _, r := range e.rates {
		e.digest.put(math.Float64bits(r))
	}
	e.digest.put(uint64(len(e.live)))
	e.digest.put(e.fn.Settles())
	e.samples++
	if e.sched.Now()+e.hp.Epoch < e.hp.Duration {
		e.sched.After(e.hp.Epoch, e.sampleFn)
	}
}

// RunChurn routes an open flow lifecycle workload over a fat tree's
// fluid directions. Like the other experiment units it is a
// pure function of (Params, HybridParams).
func RunChurn(p Params, hp HybridParams) ChurnResult {
	if hp.Arity < 4 || hp.Arity%2 != 0 {
		// A pod-local flow needs two hosts in a pod: (k/2)² >= 2.
		panic(fmt.Sprintf("experiment: churn arity %d must be even and >= 4", hp.Arity))
	}
	if hp.Epoch <= 0 {
		hp.Epoch = 10 * time.Millisecond
	}
	if hp.ChurnMeanBytes <= 0 {
		hp.ChurnMeanBytes = 40_000
	}

	sched := sim.NewScheduler()
	fn := traffic.NewFluidNet(sched, traffic.FluidConfig{
		Epoch:         hp.Epoch,
		SettleWorkers: hp.SettleWorkers,
	})
	topoStart := time.Now()
	tree := newFatTreeDirs(fn, p, hp.Arity)
	topoMS := float64(time.Since(topoStart)) / float64(time.Millisecond)
	e := &churnEngine{
		sched:   sched,
		fn:      fn,
		tree:    tree,
		rng:     sim.NewRNG(p.Seed),
		hp:      hp,
		pathBuf: make([]int32, 0, 8),
		digest:  newFnvFold(),
	}
	e.departCall = e.depart
	e.waveFn = e.wave
	e.sampleFn = e.sample
	sched.After(0, e.waveFn)
	sched.After(hp.Epoch-time.Microsecond, e.sampleFn)

	sched.RunFor(hp.Duration)

	// Natural lifecycle counts end here; the drain below releases the
	// remainder without counting them as departures.
	natDepartures := e.departures
	endLive := len(e.live)
	for len(e.live) > 0 {
		e.remove(e.live[len(e.live)-1])
	}
	sched.RunFor(2 * hp.Epoch) // the delisting settle retires the drained flows
	fn.Close()

	e.digest.put(e.arrivals)
	e.digest.put(natDepartures)
	e.digest.put(fn.Settles())
	digest := fmt.Sprintf("churn=%016x|arrivals=%d|departures=%d|samples=%d|settles=%d",
		e.digest.h.Sum64(), e.arrivals, natDepartures, e.samples, fn.Settles())

	secs := hp.Duration.Seconds()
	return ChurnResult{
		Arity:                    hp.Arity,
		Hosts:                    tree.hosts,
		Switches:                 5 * hp.Arity * hp.Arity / 4,
		SettleWorkers:            hp.SettleWorkers,
		Arrivals:                 e.arrivals,
		Departures:               natDepartures,
		EndLive:                  endLive,
		PeakLive:                 e.peakLive,
		Recycled:                 fn.Recycled(),
		Events:                   sched.Executed(),
		Settles:                  fn.Settles(),
		ComponentsSolved:         fn.ComponentsSolved(),
		WheelExpired:             e.fired,
		WheelPending:             int(e.arrivals - e.fired),
		DeliveredBits:            fn.RetiredBits(),
		ArrivalsPerSimSec:        float64(e.arrivals) / secs,
		LifecycleEventsPerSimSec: float64(e.arrivals+natDepartures) / secs,
		BuildTopoMS:              topoMS,
		Digest:                   digest,
	}
}
