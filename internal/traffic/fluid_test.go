package traffic

import (
	"math"
	"testing"
	"time"

	"netco/internal/netem"
	"netco/internal/packet"
	"netco/internal/sim"
)

// fluidRig builds a scheduler, network, and n hosts wired as a chain
// h0-h1-...-h(n-1) with the given per-link capacities (len(caps) = n-1).
// Returns the chain's links in order.
func fluidRig(t testing.TB, caps []float64) (*sim.Scheduler, []*netem.Link) {
	t.Helper()
	sched := sim.NewScheduler()
	return sched, fluidChain(sched, caps)
}

// fluidChain builds the chain in a Network of its own on sched.
func fluidChain(sched *sim.Scheduler, caps []float64) []*netem.Link {
	nw := netem.New(sched)
	hosts := make([]*Host, len(caps)+1)
	for i := range hosts {
		hosts[i] = NewHost(sched, "h"+string(rune('0'+i)), packet.HostMAC(uint32(i+1)), packet.HostIP(uint32(i+1)), HostConfig{})
	}
	links := make([]*netem.Link, len(caps))
	for i, c := range caps {
		// Port 0 faces down-chain on the left host, port 1 up-chain.
		links[i] = nw.Connect(hosts[i], 1, hosts[i+1], 0, netem.LinkConfig{Bandwidth: c, Delay: time.Microsecond})
	}
	return links
}

// loadOf returns the load the last settle published on the direction
// NewFlow resolves (l, end) to, and 0 when no held direction has that Hop.
func loadOf(fn *FluidNet, l *netem.Link, end int) float64 {
	if cell := fn.hopDirs[Hop{Link: l, End: end}]; cell != nil && *cell != 0 {
		return fn.dirs.at(*cell - 1).load
	}
	return 0
}

func TestFluidMaxMinSingleBottleneck(t *testing.T) {
	sched, links := fluidRig(t, []float64{9e6})
	fn := NewFluidNet(sched, FluidConfig{})
	hop := []Hop{{Link: links[0], End: 0}}

	f1 := fn.NewFlow(2e6, hop)
	f2 := fn.NewFlow(10e6, hop)
	f3 := fn.NewFlow(10e6, hop)
	f1.Start()
	f2.Start()
	f3.Start()
	sched.RunFor(fn.Epoch())

	// Progressive filling: f1 demand-freezes at 2e6, then f2/f3 split
	// the remaining 7e6. All values exactly representable.
	if f1.Rate() != 2e6 || f2.Rate() != 3.5e6 || f3.Rate() != 3.5e6 {
		t.Fatalf("rates = %v %v %v, want 2e6 3.5e6 3.5e6", f1.Rate(), f2.Rate(), f3.Rate())
	}
	if got := loadOf(fn, links[0], 0); got != 9e6 {
		t.Fatalf("link load = %v, want 9e6", got)
	}
	if fn.Settles() != 1 {
		t.Fatalf("settles = %d, want 1", fn.Settles())
	}
}

func TestFluidMaxMinMultiLink(t *testing.T) {
	sched, links := fluidRig(t, []float64{6e6, 10e6})
	fn := NewFluidNet(sched, FluidConfig{})

	fA := fn.NewFlow(100e6, []Hop{{Link: links[0], End: 0}, {Link: links[1], End: 0}})
	fB := fn.NewFlow(100e6, []Hop{{Link: links[0], End: 0}})
	fC := fn.NewFlow(100e6, []Hop{{Link: links[1], End: 0}})
	fA.Start()
	fB.Start()
	fC.Start()
	sched.RunFor(fn.Epoch())

	// l0 (6e6) is A/B's bottleneck: 3e6 each. C then takes l1's
	// leftover 7e6. The textbook max-min example, exact in floats.
	if fA.Rate() != 3e6 || fB.Rate() != 3e6 || fC.Rate() != 7e6 {
		t.Fatalf("rates = %v %v %v, want 3e6 3e6 7e6", fA.Rate(), fB.Rate(), fC.Rate())
	}
	if loadOf(fn, links[0], 0) != 6e6 || loadOf(fn, links[1], 0) != 10e6 {
		t.Fatalf("loads = %v %v", loadOf(fn, links[0], 0), loadOf(fn, links[1], 0))
	}
}

func TestFluidEpochCoalescesStaggeredStarts(t *testing.T) {
	sched, links := fluidRig(t, []float64{10e6})
	fn := NewFluidNet(sched, FluidConfig{Epoch: 10 * time.Millisecond})
	hop := []Hop{{Link: links[0], End: 0}}
	f1 := fn.NewFlow(4e6, hop)
	f2 := fn.NewFlow(4e6, hop)

	sched.After(time.Millisecond, f1.Start)
	sched.After(5*time.Millisecond, f2.Start)
	sched.RunFor(9 * time.Millisecond)
	if fn.Settles() != 0 || f1.Rate() != 0 {
		t.Fatalf("settled inside epoch: settles=%d rate=%v", fn.Settles(), f1.Rate())
	}
	sched.RunFor(2 * time.Millisecond) // crosses the 10 ms boundary
	if fn.Settles() != 1 {
		t.Fatalf("settles = %d, want 1 (coalesced)", fn.Settles())
	}
	if f1.Rate() != 4e6 || f2.Rate() != 4e6 {
		t.Fatalf("rates = %v %v", f1.Rate(), f2.Rate())
	}
}

func TestFluidDeliveredBitsAccrual(t *testing.T) {
	sched, links := fluidRig(t, []float64{10e6})
	fn := NewFluidNet(sched, FluidConfig{Epoch: 10 * time.Millisecond})
	f := fn.NewFlow(8e6, []Hop{{Link: links[0], End: 0}})
	f.Start()

	var at100 float64
	sched.After(100*time.Millisecond, func() { at100 = f.DeliveredBits() })
	sched.RunFor(100 * time.Millisecond)

	// Rate is 0 until the 10 ms settle, then 8e6 for the next 90 ms.
	want := 8e6 * 0.090
	if math.Abs(at100-want) > 1 {
		t.Fatalf("DeliveredBits = %v, want ≈ %v", at100, want)
	}
}

func TestFluidStopDrainsLoadAtBoundary(t *testing.T) {
	sched, links := fluidRig(t, []float64{10e6})
	fn := NewFluidNet(sched, FluidConfig{Epoch: 10 * time.Millisecond})
	f := fn.NewFlow(6e6, []Hop{{Link: links[0], End: 0}})
	f.Start()
	sched.After(25*time.Millisecond, f.Stop)
	sched.RunFor(40 * time.Millisecond)

	if got := loadOf(fn, links[0], 0); got != 0 {
		t.Fatalf("load after stop = %v, want 0", got)
	}
	if fn.Flows() != 0 {
		t.Fatalf("flows not drained: %d", fn.Flows())
	}
	// Delivered: 6e6 from t=10ms to t=25ms.
	want := 6e6 * 0.015
	if got := f.DeliveredBits(); math.Abs(got-want) > 1 {
		t.Fatalf("DeliveredBits = %v, want ≈ %v", got, want)
	}
	// Accrual must not keep growing after Stop.
	later := f.DeliveredBits()
	if later != f.DeliveredBits() {
		t.Fatal("accrual continued after Stop")
	}
}

// fakeExpander records Expander interactions for promotion tests.
type fakeExpander struct {
	rate             float64
	started, stopped int
	bytes            uint64
}

func (e *fakeExpander) SetRate(bps float64)    { e.rate = bps }
func (e *fakeExpander) Start()                 { e.started++ }
func (e *fakeExpander) Stop()                  { e.stopped++ }
func (e *fakeExpander) DeliveredBytes() uint64 { return e.bytes }

func TestFluidPromoteDemoteBookkeeping(t *testing.T) {
	sched, links := fluidRig(t, []float64{10e6})
	fn := NewFluidNet(sched, FluidConfig{Epoch: 10 * time.Millisecond})
	f := fn.NewFlow(5e6, []Hop{{Link: links[0], End: 0}})
	f.Start()
	sched.RunFor(10 * time.Millisecond) // settle: rate 5e6

	exp := &fakeExpander{}
	f.Promote(exp)
	if !f.acct().promoted || exp.started != 1 || exp.rate != 5e6 {
		t.Fatalf("promotion: promoted=%v started=%d rate=%v", f.acct().promoted, exp.started, exp.rate)
	}

	// While promoted, delivered bits come from the expander, not the
	// analytic rate — advancing time without expander bytes adds zero.
	before := f.DeliveredBits()
	var mid float64
	sched.After(20*time.Millisecond, func() { mid = f.DeliveredBits() })
	sched.RunFor(20 * time.Millisecond)
	if mid != before {
		t.Fatalf("analytic accrual ran while promoted: %v -> %v", before, mid)
	}
	exp.bytes = 1000
	if got := f.DeliveredBits(); got != before+8000 {
		t.Fatalf("expander bytes not folded: %v, want %v", got, before+8000)
	}

	// Reallocation retargets the expander: add a competitor.
	g := fn.NewFlow(100e6, []Hop{{Link: links[0], End: 0}})
	g.Start()
	sched.RunFor(10 * time.Millisecond)
	if exp.rate != 5e6 { // f demand-limited at 5e6; g takes the rest
		t.Fatalf("expander rate after settle = %v, want 5e6", exp.rate)
	}

	f.Demote()
	if f.acct().promoted || exp.stopped != 1 {
		t.Fatalf("demotion: promoted=%v stopped=%d", f.acct().promoted, exp.stopped)
	}
	// Double promote panics; double demote is a no-op.
	f.Demote()
	f.Promote(&fakeExpander{})
	defer func() {
		if recover() == nil {
			t.Fatal("double Promote did not panic")
		}
	}()
	f.Promote(&fakeExpander{})
}

// TestFluidStopWhilePromotedStopsExpander: Stop demotes a promoted flow,
// and so does Release, whether the flow never started or stopped before
// its promotion. Otherwise the expander's source would tick forever and
// what it delivered would never reach RetiredBits.
func TestFluidStopWhilePromotedStopsExpander(t *testing.T) {
	sched, links := fluidRig(t, []float64{10e6})
	fn := NewFluidNet(sched, FluidConfig{})
	f := fn.NewFlow(5e6, []Hop{{Link: links[0], End: 0}})
	f.Start()
	sched.RunFor(fn.Epoch())
	exp := &fakeExpander{}
	f.Promote(exp)
	f.Stop()
	if exp.stopped != 1 || f.acct().promoted {
		t.Fatalf("Stop did not demote: stopped=%d promoted=%v", exp.stopped, f.acct().promoted)
	}

	for _, started := range []bool{false, true} {
		sched, links := fluidRig(t, []float64{10e6})
		fn := NewFluidNet(sched, FluidConfig{})
		f := fn.NewFlow(5e6, []Hop{{Link: links[0], End: 0}})
		if started {
			f.Start()
			sched.RunFor(fn.Epoch())
			f.Stop()
		}
		exp := &fakeExpander{}
		f.Promote(exp)
		want := f.DeliveredBits() + 8000
		exp.bytes = 1000
		f.Release()
		sched.RunFor(fn.Epoch())
		if exp.stopped != 1 || fn.RetiredBits() != want {
			t.Fatalf("Release (started %v) did not demote: stopped=%d, retired %v bits, want %v",
				started, exp.stopped, fn.RetiredBits(), want)
		}
	}
}

func TestFluidAllocationDeterminism(t *testing.T) {
	build := func() []uint64 {
		sched, links := fluidRig(t, []float64{7e6, 11e6, 5e6})
		fn := NewFluidNet(sched, FluidConfig{})
		demands := []float64{1.5e6, 9e6, 2.25e6, 9e6, 0.5e6, 9e6, 3e6}
		flows := make([]*FluidFlow, len(demands))
		for i, d := range demands {
			// Vary path lengths: flow i crosses links[i%3 ... 2].
			var hops []Hop
			for j := i % 3; j < 3; j++ {
				hops = append(hops, Hop{Link: links[j], End: 0})
			}
			flows[i] = fn.NewFlow(d, hops)
			flows[i].Start()
		}
		sched.RunFor(fn.Epoch())
		out := make([]uint64, len(flows))
		for i, f := range flows {
			out[i] = math.Float64bits(f.Rate())
		}
		return out
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flow %d rate differs across identical runs: %x vs %x", i, a[i], b[i])
		}
	}
	// Conservation sanity: rates are positive and within demand.
	sum := 0.0
	for _, bits := range a {
		r := math.Float64frombits(bits)
		if r < 0 {
			t.Fatalf("negative rate %v", r)
		}
		sum += r
	}
	if sum <= 0 {
		t.Fatal("no capacity allocated")
	}
}

func TestFluidZeroDemandFlow(t *testing.T) {
	sched, links := fluidRig(t, []float64{10e6})
	fn := NewFluidNet(sched, FluidConfig{})
	f := fn.NewFlow(0, []Hop{{Link: links[0], End: 0}})
	g := fn.NewFlow(4e6, []Hop{{Link: links[0], End: 0}})
	f.Start()
	g.Start()
	sched.RunFor(fn.Epoch())
	if f.Rate() != 0 || g.Rate() != 4e6 {
		t.Fatalf("rates = %v %v, want 0 4e6", f.Rate(), g.Rate())
	}
	// NaN / negative demands clamp at construction.
	if h := fn.NewFlow(math.NaN(), nil); h.state().demand != 0 {
		t.Fatalf("NaN demand not clamped: %v", h.state().demand)
	}
}
