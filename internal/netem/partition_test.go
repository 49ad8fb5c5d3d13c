package netem

import (
	"reflect"
	"testing"
	"time"

	"netco/internal/packet"
	"netco/internal/sim"
	"netco/internal/sim/par"
)

// buildPongPair wires two collectors that bounce a packet back and forth
// `bounces` times over one link. With parts=0 both live on one serial
// scheduler; otherwise each gets its own partition joined by a boundary.
func buildPongPair(parts int, bounces int) (run func(), arrivals func() ([]time.Duration, []time.Duration)) {
	var net *Network
	var eng *par.Engine
	if parts == 0 {
		net = New(sim.NewScheduler())
	} else {
		eng = par.New(2, 2)
		net = NewPartitioned(eng.Schedulers(),
			func(name string) int {
				if name == "a" {
					return 0
				}
				return 1
			},
			func(src, dst int) CrossPost { return eng.Boundary(src, dst) })
	}
	a := newCollector(net.SchedulerFor("a"), "a")
	b := newCollector(net.SchedulerFor("b"), "b")
	net.Connect(a, 0, b, 0, LinkConfig{Bandwidth: 100e6, Delay: 50 * time.Microsecond})

	left := bounces
	a.onRx = func(port int, pkt *packet.Packet) {
		if left > 0 {
			left--
			a.ports.Send(0, pkt.Clone())
		}
	}
	b.onRx = func(port int, pkt *packet.Packet) {
		if left > 0 {
			left--
			b.ports.Send(0, pkt.Clone())
		}
	}

	run = func() {
		a.sched.At(0, func() { a.ports.Send(0, testPacket(200)) })
		if eng != nil {
			eng.SetLookahead(net.MinCrossDelay())
			eng.RunUntil(100 * time.Millisecond)
		} else {
			net.Sched.RunUntil(100 * time.Millisecond)
		}
	}
	arrivals = func() ([]time.Duration, []time.Duration) { return a.at, b.at }
	return run, arrivals
}

func TestPartitionedLinkMatchesSerial(t *testing.T) {
	const bounces = 20
	sr, sa := buildPongPair(0, bounces)
	sr()
	sAt, sBt := sa()
	if len(sBt) == 0 {
		t.Fatal("serial reference delivered nothing")
	}

	pr, pa := buildPongPair(2, bounces)
	pr()
	pAt, pBt := pa()
	if !reflect.DeepEqual(sAt, pAt) || !reflect.DeepEqual(sBt, pBt) {
		t.Fatalf("partitioned arrival timelines diverge from serial:\n a: %v vs %v\n b: %v vs %v",
			sAt, pAt, sBt, pBt)
	}
}

func TestZeroDelayCrossPartitionLinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Connect should panic on a zero-delay cross-partition link")
		}
	}()
	eng := par.New(2, 1)
	net := NewPartitioned(eng.Schedulers(),
		func(name string) int {
			if name == "a" {
				return 0
			}
			return 1
		},
		func(src, dst int) CrossPost { return eng.Boundary(src, dst) })
	a := newCollector(net.SchedulerFor("a"), "a")
	b := newCollector(net.SchedulerFor("b"), "b")
	net.Connect(a, 0, b, 0, LinkConfig{Bandwidth: 100e6}) // Delay == 0
}
