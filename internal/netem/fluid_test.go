package netem

import (
	"math"
	"testing"
	"time"

	"netco/internal/packet"
	"netco/internal/sim"
)

// sinkNode is a minimal port-bearing node that records arrivals.
type sinkNode struct {
	name     string
	ports    Ports
	received int
}

func (n *sinkNode) Name() string                         { return n.name }
func (n *sinkNode) Ports() *Ports                        { return &n.ports }
func (n *sinkNode) Receive(port int, pkt *packet.Packet) { n.received++ }

// deliveryProbe measures one packet's delivery time over a fresh link
// with the given fluid load applied to the transmitting direction.
func deliveryProbe(t *testing.T, cfg LinkConfig, fluidBps float64) time.Duration {
	t.Helper()
	sched := sim.NewScheduler()
	net := New(sched)
	a := &sinkNode{name: "a"}
	b := &sinkNode{name: "b"}
	l := net.Connect(a, 0, b, 0, cfg)
	l.SetFluidLoad(0, fluidBps)

	pkt := packet.NewUDP(
		packet.Endpoint{MAC: packet.HostMAC(1), IP: packet.HostIP(1), Port: 1},
		packet.Endpoint{MAC: packet.HostMAC(2), IP: packet.HostIP(2), Port: 2},
		make([]byte, 1000))
	if !a.ports.Send(0, pkt) {
		t.Fatal("send rejected")
	}
	// Run to completion; the delivery is the last event.
	var last time.Duration
	for sched.Step() {
		last = sched.Now()
	}
	if b.received != 1 {
		t.Fatalf("delivered %d packets, want 1", b.received)
	}
	return last
}

func TestFluidLoadZeroIsBitIdentical(t *testing.T) {
	cfg := LinkConfig{Bandwidth: 100e6, Delay: 50 * time.Microsecond}
	base := deliveryProbe(t, cfg, 0)
	again := deliveryProbe(t, cfg, 0)
	if base != again {
		t.Fatalf("zero-load runs diverged: %v vs %v", base, again)
	}
	// Explicitly setting zero load must not perturb anything either
	// (SetFluidLoad(0) is the demotion path's reset).
	if explicit := deliveryProbe(t, cfg, -0.0); explicit != base {
		t.Fatalf("explicit zero load changed delivery: %v vs %v", explicit, base)
	}
}

func TestFluidLoadShrinksEffectiveCapacityAndInflatesDelay(t *testing.T) {
	cfg := LinkConfig{Bandwidth: 100e6, Delay: 50 * time.Microsecond}
	base := deliveryProbe(t, cfg, 0)
	half := deliveryProbe(t, cfg, 50e6) // 50% fluid: serialisation doubles + queue term
	if half <= base {
		t.Fatalf("50%% fluid load did not slow delivery: %v vs %v", half, base)
	}
	// Serialisation of 1000B+overhead at 100 Mb/s is ~82 µs; at the
	// remaining 50 Mb/s it is ~164 µs, plus a ρ/(1−ρ)=1 queue term of
	// another ~164 µs. Sanity-bound rather than bit-assert.
	if half < base+150*time.Microsecond {
		t.Fatalf("inflation too small: base=%v half=%v", base, half)
	}
	heavier := deliveryProbe(t, cfg, 90e6)
	if heavier <= half {
		t.Fatalf("90%% fluid load not slower than 50%%: %v vs %v", heavier, half)
	}
}

func TestFluidLoadFloorsPacketCapacity(t *testing.T) {
	cfg := LinkConfig{Bandwidth: 100e6, Delay: time.Microsecond}
	sched := sim.NewScheduler()
	net := New(sched)
	a := &sinkNode{name: "a"}
	b := &sinkNode{name: "b"}
	l := net.Connect(a, 0, b, 0, cfg)

	// Oversubscribed fluid tier: packets keep minEffectiveShare.
	l.SetFluidLoad(0, 500e6)
	if got, want := l.EffectiveBandwidth(0), 100e6*minEffectiveShare; got != want {
		t.Fatalf("EffectiveBandwidth = %v, want floor %v", got, want)
	}
	// Unbanded links stay unbanded under fluid accounting.
	l2 := net.Connect(a, 1, b, 1, LinkConfig{Delay: time.Microsecond})
	l2.SetFluidLoad(0, 1e9)
	if got := l2.EffectiveBandwidth(0); got != 0 {
		t.Fatalf("unbanded EffectiveBandwidth = %v, want 0", got)
	}
}

func TestFluidLoadAccessors(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	a := &sinkNode{name: "a"}
	b := &sinkNode{name: "b"}
	l := net.Connect(a, 0, b, 0, LinkConfig{Bandwidth: 10e6})

	if l.Capacity() != 10e6 {
		t.Fatalf("Capacity = %v", l.Capacity())
	}
	l.SetFluidLoad(1, 3e6)
	if l.FluidLoad(1) != 3e6 || l.FluidLoad(0) != 0 {
		t.Fatalf("per-direction loads leaked: %v / %v", l.FluidLoad(0), l.FluidLoad(1))
	}
	l.SetFluidLoad(1, -5) // clamps
	if l.FluidLoad(1) != 0 {
		t.Fatalf("negative load not clamped: %v", l.FluidLoad(1))
	}

	// A bound load is read, not copied, and clamps on read.
	var bound float64
	l.BindFluidLoad(0, &bound)
	for _, c := range []struct{ set, want float64 }{{7e6, 7e6}, {-1, 0}, {math.NaN(), 0}, {2e6, 2e6}} {
		bound = c.set
		if got := l.FluidLoad(0); got != c.want {
			t.Fatalf("bound load %v reads %v, want %v", c.set, got, c.want)
		}
	}
	if got, want := l.EffectiveBandwidth(0), 8e6; got != want {
		t.Fatalf("EffectiveBandwidth under bound 2e6 = %v, want %v", got, want)
	}
	l.BindFluidLoad(0, nil)
	if l.FluidLoad(0) != 0 || l.EffectiveBandwidth(0) != 10e6 {
		t.Fatalf("unbound direction reads %v / %v", l.FluidLoad(0), l.EffectiveBandwidth(0))
	}

	// Ref exposes the (link, end) pair for path building.
	if ll, end := a.ports.Ref(0); ll != l || end != 0 {
		t.Fatalf("Ref(a,0) = %v end %d", ll.Name(), end)
	}
	if ll, end := b.ports.Ref(0); ll != l || end != 1 {
		t.Fatalf("Ref(b,0) = %v end %d", ll.Name(), end)
	}
}
