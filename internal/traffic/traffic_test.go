package traffic

import (
	"testing"
	"time"

	"netco/internal/netem"
	"netco/internal/packet"
	"netco/internal/sim"
)

// pipe wires two hosts directly with the given link.
func pipe(t *testing.T, cfg netem.LinkConfig, hostCfg HostConfig) (*sim.Scheduler, *netem.Network, *Host, *Host) {
	t.Helper()
	sched := sim.NewScheduler()
	net := netem.New(sched)
	h1 := NewHost(sched, "h1", packet.HostMAC(1), packet.HostIP(1), hostCfg)
	h2 := NewHost(sched, "h2", packet.HostMAC(2), packet.HostIP(2), hostCfg)
	net.Connect(h1, HostPort, h2, HostPort, cfg)
	return sched, net, h1, h2
}

var fastLink = netem.LinkConfig{Bandwidth: 1e9, Delay: 10 * time.Microsecond, QueueLimit: 100}

func TestHostIgnoresForeignFrames(t *testing.T) {
	sched, _, h1, h2 := pipe(t, fastLink, HostConfig{})
	stranger := packet.Endpoint{MAC: packet.HostMAC(9), IP: packet.HostIP(9), Port: 1}
	other := packet.Endpoint{MAC: packet.HostMAC(8), IP: packet.HostIP(8), Port: 1}
	h1.Send(packet.NewUDP(stranger, other, []byte("not for h2")))
	sched.Run()
	if h2.Stats().RxPackets != 0 {
		t.Fatal("host accepted a frame addressed elsewhere")
	}
}

func TestHostEchoResponder(t *testing.T) {
	sched, _, h1, h2 := pipe(t, fastLink, HostConfig{EchoResponder: true})
	p := NewPinger(h1, h2.Endpoint(0), PingerConfig{Count: 5, ID: 1})
	var got PingResult
	p.Run(func(r PingResult) { got = r })
	sched.Run()
	if got.Received != 5 {
		t.Fatalf("received %d of 5 replies", got.Received)
	}
	if h2.Stats().EchoesAnswered != 5 {
		t.Fatalf("EchoesAnswered = %d, want 5", h2.Stats().EchoesAnswered)
	}
	// RTT: 2 × (prop + tx). 56+42=98 B wire + 24 ovh = 122 B at 1 Gbit/s
	// ≈ 0.98 µs + 10 µs each way ≈ 22 µs round trip.
	rtt := got.RTT.MeanDuration()
	if rtt < 20*time.Microsecond || rtt > 30*time.Microsecond {
		t.Fatalf("mean RTT = %v, want ≈22µs", rtt)
	}
}

// TestEchoResponderBesideIDZeroPinger: a responder that also runs a
// pinger with the default ICMP id 0 still answers pings. Echo requests
// and id-0 echo replies must not share a handler slot.
func TestEchoResponderBesideIDZeroPinger(t *testing.T) {
	sched, _, h1, h2 := pipe(t, fastLink, HostConfig{EchoResponder: true})
	NewPinger(h2, h1.Endpoint(0), PingerConfig{}) // ID 0, never run
	p := NewPinger(h1, h2.Endpoint(0), PingerConfig{Count: 5, ID: 1})
	var got PingResult
	p.Run(func(r PingResult) { got = r })
	sched.Run()
	if got.Received != 5 || h2.Stats().EchoesAnswered != 5 {
		t.Fatalf("received %d of 5 replies, responder answered %d", got.Received, h2.Stats().EchoesAnswered)
	}
}

// TestStrayEchoReplyIsNotAnswered: an echo reply with ICMP id 0 that no
// pinger claims is dropped as unclaimed, not answered as a request —
// between two responders, answering it would bounce it forever.
func TestStrayEchoReplyIsNotAnswered(t *testing.T) {
	sched, _, h1, h2 := pipe(t, fastLink, HostConfig{EchoResponder: true})
	h1.Send(packet.NewICMPEcho(h1.Endpoint(0), h2.Endpoint(0), packet.ICMPEchoReply, 0, 1, make([]byte, 56)))
	sched.RunFor(10 * time.Millisecond)
	for _, h := range []*Host{h1, h2} {
		if n := h.Stats().EchoesAnswered; n != 0 {
			t.Errorf("%s answered %d echo replies", h.Name(), n)
		}
	}
	if n := h2.Stats().RxUnclaimed; n != 1 {
		t.Errorf("h2 counted %d unclaimed frames, want the one stray reply", n)
	}
}

// TestNewHostAllocs: a responder host is one object, its receive Proc
// held inline. A fluid fabric builds one per edge port (54,000 at arity
// 60), none of which ever carries a packet.
func TestNewHostAllocs(t *testing.T) {
	sched := sim.NewScheduler()
	cfg := HostConfig{IngestPerPacket: time.Microsecond, IngestQueue: 64, EchoResponder: true}
	got := testing.AllocsPerRun(100, func() {
		NewHost(sched, "h", packet.HostMAC(1), packet.HostIP(1), cfg)
	})
	if got > 1 {
		t.Fatalf("NewHost allocated %.0f objects, want at most 1", got)
	}
}

// TestUDPSourceTickAllocs: an idle source (Rate 0) still ticks every
// millisecond, and re-arming its tick allocates nothing.
func TestUDPSourceTickAllocs(t *testing.T) {
	sched, _, h1, h2 := pipe(t, fastLink, HostConfig{})
	src := NewUDPSource(h1, 4001, h2.Endpoint(5001), UDPSourceConfig{PayloadSize: 1470})
	src.Start()
	sched.RunUntil(64 * time.Millisecond)
	got := testing.AllocsPerRun(100, func() {
		sched.RunUntil(sched.Now() + 10*time.Millisecond)
	})
	src.Stop()
	if got != 0 {
		t.Fatalf("10 ticks of an idle source allocated %.1f, want 0", got)
	}
	if src.Sent != 0 {
		t.Fatalf("idle source sent %d datagrams", src.Sent)
	}
}

func TestPingTimeout(t *testing.T) {
	sched, net, h1, _ := pipe(t, fastLink, HostConfig{EchoResponder: true})
	net.Links()[0].SetDown(true)
	p := NewPinger(h1, packet.Endpoint{MAC: packet.HostMAC(2), IP: packet.HostIP(2)},
		PingerConfig{Count: 3, ID: 1, Timeout: 50 * time.Millisecond})
	var got PingResult
	p.Run(func(r PingResult) { got = r })
	sched.Run()
	if got.Sent != 3 || got.Received != 0 {
		t.Fatalf("sent %d received %d, want 3/0", got.Sent, got.Received)
	}
}

func TestUDPSourceRate(t *testing.T) {
	sched, _, h1, h2 := pipe(t, fastLink, HostConfig{})
	sink := NewUDPSink(h2, 5001)
	src := NewUDPSource(h1, 4001, h2.Endpoint(5001), UDPSourceConfig{
		Rate:        50e6,
		PayloadSize: 1470,
	})
	src.Start()
	sched.RunUntil(time.Second)
	src.Stop()
	sched.RunFor(10 * time.Millisecond)

	// 50 Mbit/s of 1470 B payloads ≈ 4251 datagrams/s.
	if src.Sent < 4200 || src.Sent > 4300 {
		t.Fatalf("sent %d datagrams in 1s at 50 Mbit/s, want ≈4250", src.Sent)
	}
	st := sink.Stats()
	if st.Unique != src.Sent {
		t.Fatalf("received %d of %d (no loss expected)", st.Unique, src.Sent)
	}
	if st.Duplicates != 0 || st.Reordered != 0 {
		t.Fatalf("dups=%d reordered=%d on a clean pipe", st.Duplicates, st.Reordered)
	}
	if g := st.Goodput(); g < 45e6 || g > 55e6 {
		t.Fatalf("goodput %.1f Mbit/s, want ≈50", g/1e6)
	}
}

// TestUDPSourceNonPositiveTick: a negative TickInterval takes the 1 ms
// default like a zero one. Taken as given, every tick re-arms at now
// through After's clamp and the scheduler never advances, so the test
// reads the first tick's deadline rather than running the source.
func TestUDPSourceNonPositiveTick(t *testing.T) {
	for _, tick := range []time.Duration{0, -time.Nanosecond, -time.Millisecond} {
		sched, _, h1, h2 := pipe(t, fastLink, HostConfig{})
		src := NewUDPSource(h1, 4001, h2.Endpoint(5001), UDPSourceConfig{Rate: 10e6, PayloadSize: 1470, TickInterval: tick})
		src.Start()
		if at, ok := sched.PeekDeadline(); !ok || at != time.Millisecond {
			t.Fatalf("TickInterval %v: first tick at %v (pending %v), want 1ms", tick, at, ok)
		}
	}
}

func TestUDPLossOnOverload(t *testing.T) {
	// Offered 100 Mbit/s into a 50 Mbit/s link must lose ≈ half.
	link := netem.LinkConfig{Bandwidth: 50e6, Delay: 10 * time.Microsecond, QueueLimit: 50}
	sched, _, h1, h2 := pipe(t, link, HostConfig{})
	sink := NewUDPSink(h2, 5001)
	src := NewUDPSource(h1, 4001, h2.Endpoint(5001), UDPSourceConfig{Rate: 100e6, PayloadSize: 1470})
	src.Start()
	sched.RunUntil(time.Second)
	src.Stop()
	sched.RunFor(100 * time.Millisecond)

	loss := sink.Stats().LossRate(src.Sent)
	if loss < 0.4 || loss > 0.6 {
		t.Fatalf("loss = %.2f, want ≈0.5", loss)
	}
	if g := sink.Stats().Goodput(); g > 51e6 {
		t.Fatalf("goodput %.1f Mbit/s exceeds link rate", g/1e6)
	}
}

func TestUDPSinkCountsDuplicates(t *testing.T) {
	sched, _, h1, h2 := pipe(t, fastLink, HostConfig{})
	sink := NewUDPSink(h2, 5001)
	src := NewUDPSource(h1, 4001, h2.Endpoint(5001), UDPSourceConfig{Rate: 10e6, PayloadSize: 200})
	// Send the same frames twice via a tap that re-sends clones.
	src.Start()
	sched.RunUntil(100 * time.Millisecond)
	src.Stop()
	sched.RunFor(10 * time.Millisecond)
	first := sink.Stats().Unique

	// Replay the identical payload sequence: every datagram is a dup.
	src2 := NewUDPSource(h1, 4001, h2.Endpoint(5001), UDPSourceConfig{Rate: 10e6, PayloadSize: 200})
	src2.Start()
	sched.RunFor(100 * time.Millisecond)
	src2.Stop()
	sched.RunFor(10 * time.Millisecond)

	st := sink.Stats()
	if st.Unique != first {
		t.Fatalf("unique grew from %d to %d on replay", first, st.Unique)
	}
	if st.Duplicates == 0 {
		t.Fatal("duplicates not counted")
	}
}

func TestHostIngestCapacity(t *testing.T) {
	// A 10 kpps ingest limit must drop most of a 40 kpps arrival rate.
	sched, _, h1, h2 := pipe(t, netem.LinkConfig{Bandwidth: 1e9, QueueLimit: 1000},
		HostConfig{IngestPerPacket: 100 * time.Microsecond, IngestQueue: 16})
	sink := NewUDPSink(h2, 5001)
	src := NewUDPSource(h1, 4001, h2.Endpoint(5001), UDPSourceConfig{Rate: 100e6, PayloadSize: 300})
	src.Start()
	sched.RunUntil(500 * time.Millisecond)
	src.Stop()
	sched.RunFor(100 * time.Millisecond)

	if h2.Stats().RxDropped == 0 {
		t.Fatal("overloaded host dropped nothing")
	}
	// Delivered rate ≈ 10 kpps regardless of offered.
	st := sink.Stats()
	pps := float64(st.Unique) / (st.Last - st.First).Seconds()
	if pps < 9000 || pps > 11000 {
		t.Fatalf("delivered %.0f pps, want ≈10000 (ingest bound)", pps)
	}
}

func TestTCPCleanLinkReachesCapacity(t *testing.T) {
	link := netem.LinkConfig{Bandwidth: 500e6, Delay: 15 * time.Microsecond, QueueLimit: 100}
	sched, _, h1, h2 := pipe(t, link, HostConfig{})
	flow := StartTCPFlow(h1, h2, 40000, 5001, TCPConfig{})
	sched.RunUntil(3 * time.Second)
	flow.Stop()

	st := flow.Stats()
	goodput := st.Goodput(3 * time.Second)
	// 500 Mbit/s × 1460/1538 ≈ 474 Mbit/s — the paper's Linespeed figure.
	if goodput < 440e6 || goodput > 480e6 {
		t.Fatalf("goodput %.1f Mbit/s, want ≈474", goodput/1e6)
	}
	if st.Timeouts > 0 {
		t.Fatalf("clean link suffered %d RTO timeouts", st.Timeouts)
	}
}

func TestTCPBoundedTransferQuiesces(t *testing.T) {
	link := netem.LinkConfig{Bandwidth: 500e6, Delay: 15 * time.Microsecond, QueueLimit: 100}
	sched, _, h1, h2 := pipe(t, link, HostConfig{})
	const limit = 100 << 10
	flow := StartTCPFlow(h1, h2, 40000, 5001, TCPConfig{MaxBytes: limit})
	sched.RunUntil(3 * time.Second)

	if !flow.Done() {
		t.Fatal("bounded flow did not finish in 3s")
	}
	st := flow.Stats()
	// The sender rounds the limit up to whole segments; the receiver must
	// see exactly what was offered, and nothing more arrives afterwards.
	wantBytes := uint64((limit + 1459) / 1460 * 1460)
	if st.BytesAcked != wantBytes || st.GoodputBytes != wantBytes {
		t.Fatalf("acked=%d goodput=%d, want %d", st.BytesAcked, st.GoodputBytes, wantBytes)
	}
	before := st.SegmentsSent
	sched.RunFor(time.Second)
	if after := flow.Stats().SegmentsSent; after != before {
		t.Fatalf("quiesced flow sent %d more segments", after-before)
	}
}

func TestTCPRecoversFromLoss(t *testing.T) {
	// A tiny queue forces periodic drops; the flow must keep making
	// progress via fast retransmit rather than stalling.
	link := netem.LinkConfig{Bandwidth: 100e6, Delay: 100 * time.Microsecond, QueueLimit: 8}
	sched, _, h1, h2 := pipe(t, link, HostConfig{})
	flow := StartTCPFlow(h1, h2, 40000, 5001, TCPConfig{})
	sched.RunUntil(3 * time.Second)
	flow.Stop()

	st := flow.Stats()
	if st.FastRetransmits == 0 {
		t.Fatal("no fast retransmits despite a lossy queue")
	}
	goodput := st.Goodput(3 * time.Second)
	if goodput < 60e6 {
		t.Fatalf("goodput %.1f Mbit/s, want > 60 (flow must survive loss)", goodput/1e6)
	}
	if st.GoodputBytes == 0 {
		t.Fatal("receiver got nothing")
	}
}

// duplicator forwards every packet twice — a minimal stand-in for a Dup
// path, to verify the dup-ACK collapse mechanism in isolation.
type duplicator struct {
	name  string
	ports netem.Ports
}

func (d *duplicator) Name() string        { return d.name }
func (d *duplicator) Ports() *netem.Ports { return &d.ports }
func (d *duplicator) Receive(port int, pkt *packet.Packet) {
	out := 1 - port
	d.ports.Send(out, pkt)
	d.ports.Send(out, pkt)
}

func TestTCPCollapsesUnderDuplication(t *testing.T) {
	sched := sim.NewScheduler()
	net := netem.New(sched)
	h1 := NewHost(sched, "h1", packet.HostMAC(1), packet.HostIP(1), HostConfig{})
	h2 := NewHost(sched, "h2", packet.HostMAC(2), packet.HostIP(2), HostConfig{})
	dup := &duplicator{name: "dup"}
	link := netem.LinkConfig{Bandwidth: 500e6, Delay: 15 * time.Microsecond, QueueLimit: 100}
	net.Connect(h1, HostPort, dup, 0, link)
	net.Connect(dup, 1, h2, HostPort, link)

	flow := StartTCPFlow(h1, h2, 40000, 5001, TCPConfig{})
	sched.RunUntil(2 * time.Second)
	flow.Stop()

	st := flow.Stats()
	if st.DupAcksSeen == 0 || st.DupSegments == 0 {
		t.Fatalf("duplication produced no dup signals: %+v", st)
	}
	goodput := st.Goodput(2 * time.Second)
	// The paper's observation: duplication slashes TCP throughput (Dup3 =
	// 122 vs Linespeed 474). Expect a clear collapse but sustained progress.
	if goodput > 300e6 {
		t.Fatalf("goodput %.1f Mbit/s — duplication should collapse TCP well below linespeed", goodput/1e6)
	}
	if goodput < 10e6 {
		t.Fatalf("goodput %.1f Mbit/s — flow starved entirely", goodput/1e6)
	}
}

func TestTCPDelayedAckReducesAckTraffic(t *testing.T) {
	link := netem.LinkConfig{Bandwidth: 500e6, Delay: 15 * time.Microsecond, QueueLimit: 100}
	run := func(ackEvery int) (uint64, float64) {
		sched, _, h1, h2 := pipe(t, link, HostConfig{})
		flow := StartTCPFlow(h1, h2, 40000, 5001, TCPConfig{AckEvery: ackEvery})
		sched.RunUntil(time.Second)
		flow.Stop()
		return h2.Stats().TxPackets, flow.Stats().Goodput(time.Second)
	}
	acksImmediate, _ := run(1)
	acksDelayed, goodputDelayed := run(2)
	if acksDelayed >= acksImmediate {
		t.Fatalf("delayed ACKs (%d) not fewer than immediate (%d)", acksDelayed, acksImmediate)
	}
	if goodputDelayed < 400e6 {
		t.Fatalf("delayed-ACK goodput %.1f Mbit/s collapsed", goodputDelayed/1e6)
	}
}

func TestTCPStatsConsistency(t *testing.T) {
	link := netem.LinkConfig{Bandwidth: 100e6, Delay: 50 * time.Microsecond, QueueLimit: 20}
	sched, _, h1, h2 := pipe(t, link, HostConfig{})
	flow := StartTCPFlow(h1, h2, 40000, 5001, TCPConfig{})
	sched.RunUntil(time.Second)
	flow.Stop()
	st := flow.Stats()
	if st.GoodputBytes > st.BytesAcked+(1<<20) {
		t.Fatalf("receiver got %d bytes but only %d acked", st.GoodputBytes, st.BytesAcked)
	}
	if st.SegmentsSent == 0 {
		t.Fatal("no segments sent")
	}
	if st.SRTT <= 0 {
		t.Fatal("no RTT estimate formed")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (uint64, uint64, time.Duration) {
		link := netem.LinkConfig{Bandwidth: 100e6, Delay: 50 * time.Microsecond, QueueLimit: 10}
		sched, _, h1, h2 := pipe(t, link, HostConfig{})
		sink := NewUDPSink(h2, 5001)
		src := NewUDPSource(h1, 4001, h2.Endpoint(5001), UDPSourceConfig{
			Rate: 120e6, PayloadSize: 1470,
			Jitter: 200 * time.Microsecond, Rng: sim.NewRNG(7),
		})
		src.Start()
		flow := StartTCPFlow(h1, h2, 40000, 5002, TCPConfig{})
		sched.RunUntil(time.Second)
		src.Stop()
		flow.Stop()
		return sink.Stats().Unique, flow.Stats().GoodputBytes, sink.Stats().Jitter
	}
	u1, g1, j1 := run()
	u2, g2, j2 := run()
	if u1 != u2 || g1 != g2 || j1 != j2 {
		t.Fatalf("runs diverge: (%d,%d,%v) vs (%d,%d,%v)", u1, g1, j1, u2, g2, j2)
	}
}

func TestTCPSurvivesLinkOutage(t *testing.T) {
	// A 300 ms total outage forces RTO recovery with exponential
	// backoff; the flow must resume and make progress afterwards.
	link := netem.LinkConfig{Bandwidth: 100e6, Delay: 50 * time.Microsecond, QueueLimit: 50}
	sched, net, h1, h2 := pipe(t, link, HostConfig{})
	flow := StartTCPFlow(h1, h2, 40000, 5001, TCPConfig{})

	sched.RunUntil(500 * time.Millisecond)
	net.Links()[0].SetDown(true)
	// In-flight packets drain for a few RTTs; after that nothing moves.
	sched.RunFor(50 * time.Millisecond)
	drained := flow.Stats().GoodputBytes
	sched.RunFor(250 * time.Millisecond)
	duringOutage := flow.Stats().GoodputBytes
	net.Links()[0].SetDown(false)
	sched.RunFor(time.Second)
	flow.Stop()

	st := flow.Stats()
	if duringOutage != drained {
		t.Fatalf("bytes delivered during a total outage: %d", duringOutage-drained)
	}
	if st.Timeouts == 0 {
		t.Fatal("no RTO fired during a 300ms outage")
	}
	recovered := st.GoodputBytes - duringOutage
	if recovered < 1<<20 {
		t.Fatalf("only %d bytes after the outage — flow never recovered", recovered)
	}
}

func TestTCPPacingAvoidsShallowQueueCollapse(t *testing.T) {
	// Pacing keeps the sender from dumping window-sized bursts into a
	// shallow bottleneck queue: the flow must fill a 200 Mbit/s link
	// through a 16-packet queue with no RTO and only mild loss. A
	// window-dumping sender overflows such a queue in slow start and
	// stalls in timeout recovery.
	link := netem.LinkConfig{Bandwidth: 200e6, Delay: 200 * time.Microsecond, QueueLimit: 16}
	sched, _, h1, h2 := pipe(t, link, HostConfig{})
	flow := StartTCPFlow(h1, h2, 40000, 5001, TCPConfig{})
	sched.RunUntil(2 * time.Second)
	flow.Stop()

	st := flow.Stats()
	if st.Timeouts != 0 {
		t.Fatalf("paced flow through a shallow queue hit %d RTOs", st.Timeouts)
	}
	goodput := st.Goodput(2 * time.Second)
	if goodput < 150e6 {
		t.Fatalf("goodput %.1f Mbit/s, want near line rate despite the shallow queue", goodput/1e6)
	}
}
