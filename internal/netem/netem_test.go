package netem

import (
	"testing"
	"time"

	"netco/internal/packet"
	"netco/internal/sim"
)

// collector is a test Node recording arrivals with timestamps.
type collector struct {
	name  string
	sched *sim.Scheduler
	ports Ports

	got  []*packet.Packet
	at   []time.Duration
	onRx func(port int, pkt *packet.Packet)
	rxOn []int
}

func newCollector(sched *sim.Scheduler, name string) *collector {
	return &collector{name: name, sched: sched}
}

func (c *collector) Name() string  { return c.name }
func (c *collector) Ports() *Ports { return &c.ports }

func (c *collector) Receive(port int, pkt *packet.Packet) {
	c.got = append(c.got, pkt)
	c.at = append(c.at, c.sched.Now())
	c.rxOn = append(c.rxOn, port)
	if c.onRx != nil {
		c.onRx(port, pkt)
	}
}

func testPacket(n int) *packet.Packet {
	src := packet.Endpoint{MAC: packet.HostMAC(1), IP: packet.HostIP(1), Port: 1}
	dst := packet.Endpoint{MAC: packet.HostMAC(2), IP: packet.HostIP(2), Port: 2}
	return packet.NewUDP(src, dst, make([]byte, n))
}

func TestLinkDeliveryTiming(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	a, b := newCollector(sched, "a"), newCollector(sched, "b")
	// 100 Mbit/s, 1 ms propagation.
	net.Connect(a, 0, b, 0, LinkConfig{Bandwidth: 100e6, Delay: time.Millisecond})

	pkt := testPacket(1000) // wire = 1000 + 42 headers = 1042; +24 overhead = 1066 B
	if !a.ports.Send(0, pkt) {
		t.Fatal("send rejected")
	}
	sched.Run()

	if len(b.got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(b.got))
	}
	wantTx := time.Duration(float64(pkt.WireLen()+packet.FrameOverhead) * 8 / 100e6 * float64(time.Second))
	want := wantTx + time.Millisecond
	if got := b.at[0]; got != want {
		t.Fatalf("delivery at %v, want %v", got, want)
	}
}

func TestLinkSerialisationBackToBack(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	a, b := newCollector(sched, "a"), newCollector(sched, "b")
	net.Connect(a, 0, b, 0, LinkConfig{Bandwidth: 8e6}) // 1 byte/µs

	// Two packets sent simultaneously serialise one after the other.
	p := testPacket(58) // 100 B on wire, 124 with overhead → 124 µs each
	a.ports.Send(0, p)
	a.ports.Send(0, p.Clone())
	sched.Run()

	if len(b.at) != 2 {
		t.Fatalf("delivered %d, want 2", len(b.at))
	}
	gap := b.at[1] - b.at[0]
	want := 124 * time.Microsecond
	if gap != want {
		t.Fatalf("inter-arrival %v, want %v", gap, want)
	}
}

func TestLinkTailDrop(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	a, b := newCollector(sched, "a"), newCollector(sched, "b")
	l := net.Connect(a, 0, b, 0, LinkConfig{Bandwidth: 8e6, QueueLimit: 3})

	accepted := 0
	for i := 0; i < 10; i++ {
		if a.ports.Send(0, testPacket(100)) {
			accepted++
		}
	}
	if accepted != 3 {
		t.Fatalf("accepted %d, want 3 (queue limit)", accepted)
	}
	sched.Run()
	if len(b.got) != 3 {
		t.Fatalf("delivered %d, want 3", len(b.got))
	}
	if drops := l.Stats(0).Drops; drops != 7 {
		t.Fatalf("drops = %d, want 7", drops)
	}
	// Queue drains: further sends accepted again.
	if !a.ports.Send(0, testPacket(100)) {
		t.Fatal("send rejected after queue drained")
	}
}

func TestLinkDuplexIndependence(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	a, b := newCollector(sched, "a"), newCollector(sched, "b")
	net.Connect(a, 0, b, 0, LinkConfig{Bandwidth: 8e6})

	// Saturating a→b must not delay b→a.
	for i := 0; i < 50; i++ {
		a.ports.Send(0, testPacket(1400))
	}
	b.ports.Send(0, testPacket(58))
	sched.Run()
	if len(a.got) != 1 {
		t.Fatalf("reverse direction delivered %d, want 1", len(a.got))
	}
	if a.at[0] != 124*time.Microsecond {
		t.Fatalf("reverse delivery at %v, want 124µs (no cross-direction interference)", a.at[0])
	}
}

func TestLinkDown(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	a, b := newCollector(sched, "a"), newCollector(sched, "b")
	l := net.Connect(a, 0, b, 0, LinkConfig{})
	l.SetDown(true)
	if a.ports.Send(0, testPacket(10)) {
		t.Fatal("send on down link accepted")
	}
	l.SetDown(false)
	if !a.ports.Send(0, testPacket(10)) {
		t.Fatal("send rejected after link restored")
	}
	sched.Run()
	if len(b.got) != 1 {
		t.Fatalf("delivered %d, want 1", len(b.got))
	}
}

func TestLinkInfiniteBandwidth(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	a, b := newCollector(sched, "a"), newCollector(sched, "b")
	net.Connect(a, 0, b, 0, LinkConfig{Delay: time.Microsecond})
	a.ports.Send(0, testPacket(100000))
	sched.Run()
	if b.at[0] != time.Microsecond {
		t.Fatalf("delivery at %v, want exactly the propagation delay", b.at[0])
	}
}

func TestLinkStats(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	a, b := newCollector(sched, "a"), newCollector(sched, "b")
	l := net.Connect(a, 0, b, 0, LinkConfig{})
	p := testPacket(100)
	a.ports.Send(0, p)
	a.ports.Send(0, p.Clone())
	sched.Run()
	s := l.Stats(0)
	if s.TxPackets != 2 {
		t.Errorf("TxPackets = %d, want 2", s.TxPackets)
	}
	if s.TxBytes != uint64(2*p.WireLen()) {
		t.Errorf("TxBytes = %d, want %d", s.TxBytes, 2*p.WireLen())
	}
	if r := l.Stats(1); r.TxPackets != 0 {
		t.Errorf("reverse TxPackets = %d, want 0", r.TxPackets)
	}
}

func TestPortsSendUnbound(t *testing.T) {
	var ps Ports
	if ps.Send(3, testPacket(1)) {
		t.Fatal("send on unbound port succeeded")
	}
}

func TestPortsDoubleBindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double bind did not panic")
		}
	}()
	sched := sim.NewScheduler()
	var ps Ports
	l := NewLink(sched, "l", LinkConfig{})
	ps.Bind(0, l, 0)
	ps.Bind(0, l, 1)
}

func TestPortsList(t *testing.T) {
	sched := sim.NewScheduler()
	var ps Ports
	for _, idx := range []int{5, 1, 3} {
		ps.Bind(idx, NewLink(sched, "l", LinkConfig{}), 0)
	}
	got := ps.List()
	want := []int{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List() = %v, want %v", got, want)
		}
	}
	if ps.Count() != 3 {
		t.Fatalf("Count() = %d, want 3", ps.Count())
	}
}

func TestProcServiceTimes(t *testing.T) {
	sched := sim.NewScheduler()
	p := NewProc(sched, 10*time.Microsecond, 0)
	var done []time.Duration
	for i := 0; i < 3; i++ {
		p.Submit(func() { done = append(done, sched.Now()) })
	}
	sched.Run()
	want := []time.Duration{10 * time.Microsecond, 20 * time.Microsecond, 30 * time.Microsecond}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completion times %v, want %v", done, want)
		}
	}
	if got := p.Stats().Processed; got != 3 {
		t.Fatalf("Processed = %d, want 3", got)
	}
}

func TestProcQueueLimit(t *testing.T) {
	sched := sim.NewScheduler()
	p := NewProc(sched, time.Millisecond, 2)
	accepted := 0
	for i := 0; i < 5; i++ {
		if p.Submit(func() {}) {
			accepted++
		}
	}
	if accepted != 2 {
		t.Fatalf("accepted %d, want 2", accepted)
	}
	if p.Stats().Dropped != 3 {
		t.Fatalf("Dropped = %d, want 3", p.Stats().Dropped)
	}
	sched.Run()
	if p.Backlog() != 0 {
		t.Fatalf("Backlog = %d after drain, want 0", p.Backlog())
	}
}

func TestProcStall(t *testing.T) {
	sched := sim.NewScheduler()
	p := NewProc(sched, 10*time.Microsecond, 0)
	p.Stall(time.Millisecond)
	var done time.Duration
	p.Submit(func() { done = sched.Now() })
	sched.Run()
	if done != time.Millisecond+10*time.Microsecond {
		t.Fatalf("completion at %v, want 1.01ms (stall honoured)", done)
	}
}

func TestProcZeroCost(t *testing.T) {
	sched := sim.NewScheduler()
	p := NewProc(sched, 0, 0)
	fired := false
	p.Submit(func() { fired = true })
	sched.Run()
	if !fired || sched.Now() != 0 {
		t.Fatal("zero-cost proc should complete immediately")
	}
}

func TestProcReset(t *testing.T) {
	sched := sim.NewScheduler()
	p := NewProc(sched, 10*time.Microsecond, 0)
	ran := 0
	for i := 0; i < 4; i++ {
		p.Submit(func() { ran++ })
	}
	p.SubmitArgs(func(_, _ any, _ int) { ran++ }, nil, nil, 0)
	// Reset at 15 µs: the first item (done at 10 µs) ran; the other four
	// die in the queue.
	sched.At(15*time.Microsecond, func() { p.Reset() })
	// The resource serves normally after the reset, with no stale busy
	// horizon from the discarded work: a submission at 16 µs completes one
	// service time later, not behind the dead queue.
	var at time.Duration
	sched.At(16*time.Microsecond, func() {
		if p.Backlog() != 0 {
			t.Errorf("Backlog = %d after Reset, want 0", p.Backlog())
		}
		p.Submit(func() { at = sched.Now() })
	})
	sched.Run()
	if ran != 1 {
		t.Fatalf("%d callbacks ran, want 1 (rest discarded by Reset)", ran)
	}
	if at != 26*time.Microsecond {
		t.Fatalf("post-reset completion at %v, want 26µs (submit time + one service)", at)
	}
}

// TestThroughputMatchesBandwidth drives a link at saturation and checks the
// delivered goodput equals the configured line rate minus framing overhead —
// the calibration fact behind the paper's 474 Mbit/s Linespeed TCP figure.
func TestThroughputMatchesBandwidth(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	a, b := newCollector(sched, "a"), newCollector(sched, "b")
	net.Connect(a, 0, b, 0, LinkConfig{Bandwidth: 500e6, QueueLimit: 10000})

	const n = 1000
	payload := 1460
	for i := 0; i < n; i++ {
		a.ports.Send(0, testPacket(payload))
	}
	sched.Run()
	elapsed := sched.Now().Seconds()
	goodput := float64(n*payload*8) / elapsed
	// UDP framing: 1460/(1460+42+24) of 500 Mbit/s ≈ 478.4 Mbit/s. (TCP's
	// 54-byte headers give the paper's 474 Mbit/s.)
	want := 500e6 * 1460 / 1526
	if diff := goodput/want - 1; diff > 0.001 || diff < -0.001 {
		t.Fatalf("goodput %.1f Mbit/s, want ≈%.1f", goodput/1e6, want/1e6)
	}
}

// TestLinkMinFrameTimingAt10G pins the serialisation time of back-to-back
// minimum-size frames at 10 Gb/s: 66 B on the wire (42 B headers + 24 B
// framing) is 528 bits = 52.8 ns, which must round to 53 ns — truncation
// would model 52 ns and, at still higher rates, 0 ns, collapsing distinct
// frames onto one instant.
func TestLinkMinFrameTimingAt10G(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	a, b := newCollector(sched, "a"), newCollector(sched, "b")
	net.Connect(a, 0, b, 0, LinkConfig{Bandwidth: 10e9})

	p := testPacket(0)
	const n = 8
	for i := 0; i < n; i++ {
		if !a.ports.Send(0, p.Clone()) {
			t.Fatalf("send %d rejected", i)
		}
	}
	sched.Run()
	if len(b.at) != n {
		t.Fatalf("delivered %d, want %d", len(b.at), n)
	}
	for i, at := range b.at {
		if want := time.Duration(i+1) * 53 * time.Nanosecond; at != want {
			t.Fatalf("frame %d delivered at %v, want %v (52.8 ns rounded per frame)", i, at, want)
		}
	}
}

// TestLinkSubNanosecondRateKeepsOrdering drives the rate high enough that
// the true per-frame serialisation time is under 1 ns: rounding must keep
// it at 1 ns so consecutive frames still get distinct, ordered instants.
func TestLinkSubNanosecondRateKeepsOrdering(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	a, b := newCollector(sched, "a"), newCollector(sched, "b")
	net.Connect(a, 0, b, 0, LinkConfig{Bandwidth: 1e12}) // 66 B → 0.528 ns

	p := testPacket(0)
	for i := 0; i < 4; i++ {
		a.ports.Send(0, p.Clone())
	}
	sched.Run()
	if len(b.at) != 4 {
		t.Fatalf("delivered %d, want 4", len(b.at))
	}
	for i := 1; i < len(b.at); i++ {
		if b.at[i] <= b.at[i-1] {
			t.Fatalf("frames %d and %d collapsed onto %v", i-1, i, b.at[i])
		}
	}
}

// TestLinkTooSlowNeverDelivers drives links so slow that a frame's
// serialisation time, or the queue's finish time behind it, overflows
// a Duration: the frames must never arrive, neither at once nor out of
// order.
func TestLinkTooSlowNeverDelivers(t *testing.T) {
	for _, tc := range []struct {
		name   string
		bps    float64
		frames int
	}{
		{"one frame at 1e-14 bit/s", 1e-14, 1},
		{"100 queued frames at 1e-4 bit/s", 1e-4, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched := sim.NewScheduler()
			net := New(sched)
			a, b := newCollector(sched, "a"), newCollector(sched, "b")
			net.Connect(a, 0, b, 0, LinkConfig{Bandwidth: tc.bps})
			p := testPacket(1400 - 42)
			for i := 0; i < tc.frames; i++ {
				if !a.ports.Send(0, p.Clone()) {
					t.Fatalf("frame %d refused by an unbounded queue", i)
				}
			}
			sched.RunFor(time.Hour)
			if len(b.got) != 0 {
				t.Fatalf("%d of %d frames arrived within an hour, first at %v", len(b.got), tc.frames, b.at[0])
			}
		})
	}
}
