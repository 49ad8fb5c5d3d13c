package netem

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"netco/internal/packet"
	"netco/internal/sim"
)

// refQueue is the transmit-queue accounting Link had before txQueue: an
// occupancy counter that a real tx-done event per accepted frame frees.
// It is the reference the lazy queue must agree with on every send.
type refQueue struct {
	sched     *sim.Scheduler
	cfg       LinkConfig
	busyUntil time.Duration
	queued    int
	stats     LinkStats
}

func (r *refQueue) send(pkt *packet.Packet) bool {
	if r.cfg.QueueLimit > 0 && r.queued >= r.cfg.QueueLimit {
		r.stats.Drops++
		return false
	}
	var txTime time.Duration
	if r.cfg.Bandwidth > 0 {
		bits := float64(pkt.WireLen()+packet.FrameOverhead) * 8
		txTime = time.Duration(math.Round(bits / r.cfg.Bandwidth * 1e9))
	}
	start := r.sched.Now()
	if r.busyUntil > start {
		start = r.busyUntil
	}
	finish := start + txTime
	r.busyUntil = finish
	r.queued++
	r.stats.TxPackets++
	r.stats.TxBytes += uint64(pkt.WireLen())
	r.sched.AtCall(finish, linkTxDone, r, nil, 0)
	return true
}

func linkTxDone(a0, _ any, _ int) {
	a0.(*refQueue).queued--
}

// tick is the serialisation time of tickPacket at tickRate: every finish
// instant falls on a 1 µs grid, so sends that also happen on the grid
// meet queue heads finishing exactly now all the time.
const (
	tick     = time.Microsecond
	tickRate = 992e6 // tickPacket is 124 B framed = 992 bits
)

var tickPacket = testPacket(58)

// duo drives a Link's end 0 and a refQueue with the same frames from the
// same events of one scheduler and fails on the first send they decide
// differently. Sharing the scheduler is sound because the link goes
// first: the ordering key the reference's tx-done event then draws is the
// value the link just took as its stamp, so the event the link no longer
// schedules and the one the reference does sit in the same place
// relative to every other event.
//
// What a shared scheduler cannot show is the link on its own, where no
// tx-done event consumes an ordering key between two stamps; a duo made
// with alone set has no reference, and its accept/drop log is compared
// with that of a full duo driven by the same script.
type duo struct {
	t     *testing.T
	sched *sim.Scheduler
	link  *Link
	ref   *refQueue
	sink  *collector
	log   string // 'A' accepted, 'D' dropped, per send
}

func newDuo(t *testing.T, sched *sim.Scheduler, name string, cfg LinkConfig, alone bool) *duo {
	d := &duo{t: t, sched: sched, link: NewLink(sched, name, cfg)}
	if !alone {
		d.ref = &refQueue{sched: sched, cfg: cfg}
	}
	d.sink = newCollector(sched, name+".sink")
	d.link.Attach(0, newCollector(sched, name+".src"), 0)
	d.link.Attach(1, d.sink, 0)
	return d
}

// send offers one frame to both.
func (d *duo) send() bool {
	d.t.Helper()
	got := d.link.Send(0, tickPacket)
	if d.ref != nil {
		if want := d.ref.send(tickPacket); got != want {
			d.t.Fatalf("%s at %v, send %d (after %q): link accepted=%v, tx-done reference accepted=%v",
				d.link.Name(), d.sched.Now(), len(d.log), d.log, got, want)
		}
	}
	if got {
		d.log += "A"
	} else {
		d.log += "D"
	}
	return got
}

func (d *duo) burst(n int) {
	d.t.Helper()
	for i := 0; i < n; i++ {
		d.send()
	}
}

// check compares the counters and, when want is non-empty, the
// accept/drop sequence with the one the old event order implies.
func (d *duo) check(want string) {
	d.t.Helper()
	if d.ref != nil {
		if got, ref := d.link.Stats(0), d.ref.stats; got != ref {
			d.t.Fatalf("%s: LinkStats %+v, tx-done reference %+v", d.link.Name(), got, ref)
		}
		if d.ref.queued != 0 && d.sched.Live() == 0 {
			d.t.Fatalf("%s: reference still counts %d frames after the run drained", d.link.Name(), d.ref.queued)
		}
	}
	if want != "" && d.log != want {
		d.t.Fatalf("%s: accept/drop sequence %q, want %q", d.link.Name(), d.log, want)
	}
}

// TestTxQueueTiesAtFinish pins the tie rule: a send that finds the queue
// full of a frame finishing exactly now is accepted iff that frame's
// tx-done event would have run before the event doing the send.
func TestTxQueueTiesAtFinish(t *testing.T) {
	full := LinkConfig{Bandwidth: tickRate, QueueLimit: 1}

	withAndWithoutRef(t, "channel event", func(t *testing.T, alone bool) {
		// The sender runs in a delivery landing at the head's finish
		// instant. Channel events sort after every ordinary event of the
		// instant, tx-done included: the slot is free.
		sched := sim.NewScheduler()
		d := newDuo(t, sched, "q", full, alone)
		feed := newDuo(t, sched, "feed", LinkConfig{Bandwidth: tickRate}, alone)
		feed.sink.onRx = func(int, *packet.Packet) { d.send() }
		d.send()    // finishes at 1 µs
		feed.send() // delivered at 1 µs
		sched.Run()
		d.check("AA")
	})

	withAndWithoutRef(t, "ordinary event scheduled before the frame", func(t *testing.T, alone bool) {
		// The sending event was queued first, so it runs before tx-done:
		// the slot is still taken.
		sched := sim.NewScheduler()
		d := newDuo(t, sched, "q", full, alone)
		sched.At(tick, func() { d.send() })
		d.send()
		sched.Run()
		d.check("AD")
	})

	withAndWithoutRef(t, "ordinary event scheduled after the frame", func(t *testing.T, alone bool) {
		sched := sim.NewScheduler()
		d := newDuo(t, sched, "q", full, alone)
		d.send()
		sched.At(tick, func() { d.send() })
		sched.Run()
		d.check("AA")
	})

	withAndWithoutRef(t, "run boundaries", func(t *testing.T, alone bool) {
		// RunBefore(t) parks the clock at t with nothing at t fired;
		// RunUntil(t) fires everything at t.
		sched := sim.NewScheduler()
		d := newDuo(t, sched, "q", full, alone)
		d.send() // finishes at 1 µs
		sched.RunBefore(tick)
		d.send() // head finishes now, tx-done not yet run
		sched.RunUntil(tick)
		d.send()
		sched.Run()
		d.check("ADA")
	})
}

// withAndWithoutRef runs a scenario on duos with the tx-done reference
// alongside and on lone links; the expected sequence is the same.
func withAndWithoutRef(t *testing.T, name string, f func(t *testing.T, alone bool)) {
	t.Run(name, func(t *testing.T) { f(t, false) })
	t.Run(name+", link alone", func(t *testing.T) { f(t, true) })
}

// TestTxQueueInstantFrames covers Bandwidth == 0 with a queue limit:
// every frame finishes the instant it is sent, and holds its slot until
// the tx-done event queued behind the sender would have run.
func TestTxQueueInstantFrames(t *testing.T) {
	cfg := LinkConfig{QueueLimit: 2, Delay: tick}

	withAndWithoutRef(t, "one ordinary event", func(t *testing.T, alone bool) {
		sched := sim.NewScheduler()
		d := newDuo(t, sched, "q", cfg, alone)
		sched.At(5*tick, func() {
			d.burst(4) // AADD: nothing sent here departs while we run
			// Queued behind the four tx-dones: finds the queue empty.
			sched.At(5*tick, func() { d.burst(1) })
		})
		// Queued before the first event ran, so ahead of its tx-dones.
		sched.At(5*tick, func() { d.burst(1) })
		sched.Run()
		d.check("AADDDA")
	})

	withAndWithoutRef(t, "one channel event", func(t *testing.T, alone bool) {
		sched := sim.NewScheduler()
		d := newDuo(t, sched, "q", cfg, alone)
		feed := newDuo(t, sched, "feed", LinkConfig{}, alone)
		feed.sink.onRx = func(int, *packet.Packet) { d.burst(3) }
		sched.At(5*tick, func() { feed.burst(2) }) // two deliveries at 5 µs
		sched.Run()
		// The second delivery runs after the first one's tx-dones.
		d.check("AADAAD")
	})

	withAndWithoutRef(t, "set-up code", func(t *testing.T, alone bool) {
		sched := sim.NewScheduler()
		d := newDuo(t, sched, "q", cfg, alone)
		d.burst(4) // before any run: nothing at instant 0 has fired
		sched.RunUntil(0)
		d.burst(3)
		sched.RunFor(3 * tick)
		d.burst(1) // between runs, clock ahead of every finish
		sched.Run()
		d.check("AADDAADA")
	})
}

// TestTxQueueMatchesTxDoneEvents is the differential test: a seeded
// random script of sends — from ordinary events, from deliveries, from
// code between runs, on a time grid that makes finish == now the common
// case — over links with and without serialisation time. Each seed runs
// with the reference on the links' scheduler, stepping event by event
// too, and then twice without single steps (a lone link's world has
// fewer events to step over): once more with the reference and once with
// the links alone, which must reproduce the same decisions.
func TestTxQueueMatchesTxDoneEvents(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			txQueueScript(t, seed, false, true)
			want := txQueueScript(t, seed, false, false)
			got := txQueueScript(t, seed, true, false)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("link %d alone decided %q, beside the tx-done reference %q", i, got[i], want[i])
				}
			}
		})
	}
}

// txQueueScript runs one seed's script and returns each link's
// accept/drop log.
func txQueueScript(t *testing.T, seed int64, alone, steps bool) []string {
	rng := rand.New(rand.NewSource(seed))
	sched := sim.NewScheduler()
	duos := []*duo{
		newDuo(t, sched, "tick-q1", LinkConfig{Bandwidth: tickRate, QueueLimit: 1}, alone),
		newDuo(t, sched, "tick-q2-delay", LinkConfig{Bandwidth: tickRate, QueueLimit: 2, Delay: tick}, alone),
		newDuo(t, sched, "halfrate-q3", LinkConfig{Bandwidth: tickRate / 2, QueueLimit: 3}, alone),
		newDuo(t, sched, "instant-q2", LinkConfig{QueueLimit: 2}, alone),
		newDuo(t, sched, "instant-q3-delay", LinkConfig{QueueLimit: 3, Delay: tick}, alone),
		newDuo(t, sched, "unbounded", LinkConfig{Bandwidth: tickRate}, alone),
	}
	budget := 4000 // acts; bounds a script whose events beget events
	var act func()
	act = func() {
		if budget == 0 {
			return
		}
		budget--
		for n := rng.Intn(4); n > 0; n-- {
			duos[rng.Intn(len(duos))].send()
		}
		if rng.Intn(3) == 0 {
			sched.At(sched.Now()+time.Duration(rng.Intn(4))*tick, act)
		}
	}
	for _, d := range duos {
		d.sink.onRx = func(int, *packet.Packet) {
			if rng.Intn(2) == 0 {
				act()
			}
		}
	}
	for i := 0; i < 40; i++ {
		sched.At(time.Duration(rng.Intn(200))*tick, act)
	}
	for budget > 0 {
		switch span := time.Duration(rng.Intn(5)) * tick; rng.Intn(4) {
		case 0:
			for n := rng.Intn(8); steps && n > 0; n-- {
				sched.Step()
			}
		case 1:
			sched.RunUntil(sched.Now() + span)
		case 2:
			sched.RunBefore(sched.Now() + span)
		case 3:
			act() // between runs, outside any event
		}
	}
	sched.Run()
	var logs []string
	accepted, dropped := 0, 0
	for _, d := range duos {
		d.check("")
		logs = append(logs, d.log)
		st := d.link.Stats(0)
		accepted += int(st.TxPackets)
		dropped += int(st.Drops)
	}
	if accepted < 500 || dropped < 500 {
		t.Fatalf("script too tame to mean anything: %d accepted, %d dropped", accepted, dropped)
	}
	return logs
}

// TestLinkSize pins the footprint a packet fabric multiplies by its link
// count: a direction is 56 B, the queue record and the impairment
// pipeline one pointer each, and a link at most 208 B.
func TestLinkSize(t *testing.T) {
	if got := unsafe.Sizeof(linkDir{}); got != 56 {
		t.Errorf("linkDir is %d bytes, want 56", got)
	}
	if got := unsafe.Sizeof(Link{}); got > 208 {
		t.Errorf("Link is %d bytes, want at most 208", got)
	}
}

// sinkNode is a minimal port-bearing node that records arrivals.
type sinkNode struct {
	name     string
	ports    Ports
	received int
}

func (n *sinkNode) Name() string                         { return n.name }
func (n *sinkNode) Ports() *Ports                        { return &n.ports }
func (n *sinkNode) Receive(port int, pkt *packet.Packet) { n.received++ }

// steadyLink is a bounded link in the shape of the testbed's, attached
// and warmed until the transmit queue's ring and the scheduler's arena
// have reached working-set size.
func steadyLink() (*sim.Scheduler, *Link) {
	sched := sim.NewScheduler()
	l := NewLink(sched, "steady", LinkConfig{Bandwidth: 1e9, Delay: 16 * time.Microsecond, QueueLimit: 100})
	l.Attach(0, newCollector(sched, "src"), 0)
	l.Attach(1, &sinkNode{name: "dst"}, 0)
	for i := 0; i < 4; i++ {
		for j := 0; j < 64; j++ {
			l.Send(0, tickPacket)
		}
		sched.Run()
	}
	return sched, l
}

// TestLinkSendSteadyStateZeroAlloc guards the per-hop path: once warm, a
// send plus the delivery it schedules allocates nothing — the transmit
// queue reuses its ring, the delivery its pooled event record.
func TestLinkSendSteadyStateZeroAlloc(t *testing.T) {
	sched, l := steadyLink()
	got := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			l.Send(0, tickPacket)
		}
		sched.Run()
	})
	if got != 0 {
		t.Fatalf("Link.Send + delivery allocated %.1f per 64-frame burst, want 0", got)
	}
	if st := l.Stats(0); st.Drops != 0 {
		t.Fatalf("burst of 64 overran the 100-frame queue: %+v", st)
	}
}

func BenchmarkLinkSendSteadyState(b *testing.B) {
	sched, l := steadyLink()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Send(0, tickPacket)
		sched.Step()
	}
}
