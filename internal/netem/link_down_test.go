package netem

import (
	"fmt"
	"testing"
	"time"

	"netco/internal/sim"
	"netco/internal/sim/par"
)

// TestLinkScheduleDownFlap drives a deterministic down/up schedule on a
// serial link and checks the gate: sends inside the down window tail-drop
// at the transmitter, sends outside it deliver.
func TestLinkScheduleDownFlap(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	a, b := newCollector(sched, "a"), newCollector(sched, "b")
	l := net.Connect(a, 0, b, 0, LinkConfig{Delay: time.Microsecond})

	l.ScheduleDown(10*time.Microsecond, true)
	l.ScheduleDown(20*time.Microsecond, false)

	// One send every 4 µs from t=0: sends at 12 and 16 µs fall in the down
	// window; 0, 4, 8 (before) and 20, 24 (after — the up toggle is an
	// ordinary event, sorted before same-instant deliveries) pass.
	for i := 0; i < 7; i++ {
		at := time.Duration(i) * 4 * time.Microsecond
		sched.At(at, func() { a.ports.Send(0, testPacket(10)) })
	}
	sched.Run()

	if len(b.got) != 5 {
		t.Fatalf("delivered %d, want 5 (two sends inside the down window dropped)", len(b.got))
	}
	if drops := l.Stats(0).Drops; drops != 2 {
		t.Fatalf("Drops = %d, want 2", drops)
	}
	if l.down[0] || l.down[1] {
		t.Fatal("link should be back up at both ends")
	}
}

// TestLinkDropInFlight pins both in-flight semantics: by default a packet
// already propagating when the link goes down still arrives (digest
// compatibility); with DropInFlight it is discarded at the receiving end
// and counted in InFlightDrops.
func TestLinkDropInFlight(t *testing.T) {
	for _, drop := range []bool{false, true} {
		t.Run(fmt.Sprintf("dropInFlight=%v", drop), func(t *testing.T) {
			sched := sim.NewScheduler()
			net := New(sched)
			a, b := newCollector(sched, "a"), newCollector(sched, "b")
			l := net.Connect(a, 0, b, 0, LinkConfig{Delay: 100 * time.Microsecond, DropInFlight: drop})

			// Sent at t=0, arrives at t=100µs; the link goes down at 50µs,
			// mid-propagation, and heals at 200µs.
			a.ports.Send(0, testPacket(10))
			l.ScheduleDown(50*time.Microsecond, true)
			l.ScheduleDown(200*time.Microsecond, false)
			sched.Run()

			wantDelivered, wantInFlight := 1, uint64(0)
			if drop {
				wantDelivered, wantInFlight = 0, 1
			}
			if len(b.got) != wantDelivered {
				t.Fatalf("delivered %d, want %d", len(b.got), wantDelivered)
			}
			s := l.Stats(0)
			if s.InFlightDrops != wantInFlight {
				t.Fatalf("InFlightDrops = %d, want %d", s.InFlightDrops, wantInFlight)
			}
			if s.Drops != 0 {
				t.Fatalf("Drops = %d, want 0 (send was accepted)", s.Drops)
			}
			if s.TxPackets != 1 {
				t.Fatalf("TxPackets = %d, want 1", s.TxPackets)
			}
		})
	}
}

// TestLinkDropInFlightBoundaryInstant pins the tie-break at the toggle
// instant: ordinary events sort before same-deadline channel events, so a
// DropInFlight link going down at exactly a packet's arrival time drops
// it, and one coming up at exactly an arrival time delivers it.
func TestLinkDropInFlightBoundaryInstant(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	a, b := newCollector(sched, "a"), newCollector(sched, "b")
	l := net.Connect(a, 0, b, 0, LinkConfig{Delay: 10 * time.Microsecond, DropInFlight: true})

	a.ports.Send(0, testPacket(10))           // arrives at exactly 10 µs
	l.ScheduleDown(10*time.Microsecond, true) // down lands first at 10 µs
	sched.Run()
	if len(b.got) != 0 {
		t.Fatal("packet arriving at the down instant should be dropped")
	}

	l.ScheduleDown(sched.Now()+5*time.Microsecond, false)
	sched.Run()
	if !a.ports.Send(0, testPacket(10)) {
		t.Fatal("send rejected after heal")
	}
	sched.Run()
	if len(b.got) != 1 {
		t.Fatal("packet after heal should deliver")
	}
}

// TestLinkScheduleDownPartitionedRace is the -race regression for the
// SetDown data race: a cross-partition link flapping on a timed schedule
// while both domains transmit through it concurrently. Run at partition
// counts 2 and 4 and checked bit-identical to the serial run.
func TestLinkScheduleDownPartitionedRace(t *testing.T) {
	type obs struct {
		aGot, bGot   int
		aStats       LinkStats
		lastA, lastB time.Duration
	}

	build := func(partitions int) obs {
		var scheds []*sim.Scheduler
		var netw *Network
		var eng *par.Engine
		if partitions <= 1 {
			s := sim.NewScheduler()
			scheds = []*sim.Scheduler{s}
			netw = New(s)
		} else {
			eng = par.New(partitions, partitions)
			scheds = eng.Schedulers()
			assign := func(name string) int {
				if name == "a" {
					return 0
				}
				return partitions - 1
			}
			netw = NewPartitioned(scheds, assign, func(src, dst int) CrossPost {
				return eng.Boundary(src, dst)
			})
		}
		a := newCollector(netw.SchedulerFor("a"), "a")
		b := newCollector(netw.SchedulerFor("b"), "b")
		l := netw.Connect(a, 0, b, 0, LinkConfig{Delay: 20 * time.Microsecond, DropInFlight: true})

		// Flap: down every 200 µs for 100 µs, five cycles.
		for c := 0; c < 5; c++ {
			base := time.Duration(c) * 200 * time.Microsecond
			l.ScheduleDown(base+100*time.Microsecond, true)
			l.ScheduleDown(base+200*time.Microsecond, false)
		}
		// Both ends transmit every 7 µs for the whole window — all armed at
		// setup on each sender's own scheduler, the thread-ownership rule.
		sa, sb := netw.SchedulerFor("a"), netw.SchedulerFor("b")
		for at := time.Duration(0); at < time.Millisecond; at += 7 * time.Microsecond {
			sa.At(at, func() { a.ports.Send(0, testPacket(64)) })
			sb.At(at, func() { b.ports.Send(0, testPacket(64)) })
		}

		if eng != nil {
			eng.SetLookahead(netw.MinCrossDelay())
			eng.RunUntil(2 * time.Millisecond)
		} else {
			scheds[0].RunUntil(2 * time.Millisecond)
		}
		o := obs{aGot: len(a.got), bGot: len(b.got), aStats: l.Stats(0)}
		if n := len(a.at); n > 0 {
			o.lastA = a.at[n-1]
		}
		if n := len(b.at); n > 0 {
			o.lastB = b.at[n-1]
		}
		return o
	}

	serial := build(1)
	if serial.aStats.Drops == 0 || serial.aStats.InFlightDrops == 0 {
		t.Fatalf("flap schedule produced no drops (stats %+v) — test is vacuous", serial.aStats)
	}
	if serial.aGot == 0 || serial.bGot == 0 {
		t.Fatal("no traffic delivered — test is vacuous")
	}
	for _, partitions := range []int{2, 4} {
		if got := build(partitions); got != serial {
			t.Fatalf("partitions=%d diverged from serial: %+v vs %+v", partitions, got, serial)
		}
	}
}
