package experiment

import (
	"testing"
	"time"

	"netco/internal/sim"
	"netco/internal/topo"
	"netco/internal/traffic"
)

// packetPathWindow is one measured slice of a warm Central3 run.
const packetPathWindow = 10 * time.Millisecond

// warmCentral3 builds the Fig. 3 testbed at the default calibration,
// starts one flow h1→h2 — the bench's 100 Mbit/s × 1,470 B UDP CBR
// source, or a bulk TCP flow — and runs it past warm-up, so every pool,
// ring and scheduler arena on the packet path has reached its working
// size. packets reports the frames the flow has put on the wire so far.
func warmCentral3(t testing.TB, tcp bool) (tb *topo.Testbed, packets func() uint64) {
	p := DefaultParams()
	tb = p.Build(ScenCentral3)
	t.Cleanup(tb.Close)
	if tcp {
		f := traffic.StartTCPFlow(tb.H1, tb.H2, 40001, 5001, traffic.TCPConfig{})
		packets = func() uint64 { s := f.Stats(); return s.SegmentsSent + s.Retransmits }
		tb.Runner.RunFor(300 * time.Millisecond)
	} else {
		traffic.NewUDPSink(tb.H2, 5001)
		src := traffic.NewUDPSource(tb.H1, 4001, tb.H2.Endpoint(5001), traffic.UDPSourceConfig{
			Rate: 100e6, PayloadSize: 1470, Jitter: 100 * time.Microsecond, Rng: sim.NewRNG(1),
		})
		src.Start()
		packets = func() uint64 { return src.Sent }
		tb.Runner.RunFor(200 * time.Millisecond)
	}
	return tb, packets
}

// TestPacketPathSteadyStateAllocs: once warm, a Central3 window — the
// source building each frame, three router copies, the compare channel
// both ways, the edge parsing the release, the sink — allocates at most
// maxAllocsPerPacket objects per frame the flow sends. Every node on the
// path ends its hold on a pooled packet, so frames go back to the pool
// of the node that built them instead of to the collector; a change that
// drops a hold somewhere costs one allocation per frame and fails here.
// Before packets had owners a window cost 8.0 allocations per UDP
// datagram and 14.2 per TCP segment.
func TestPacketPathSteadyStateAllocs(t *testing.T) {
	const maxAllocsPerPacket = 0.01
	for _, c := range []struct {
		name string
		tcp  bool
	}{{"udp", false}, {"tcp", true}} {
		t.Run(c.name, func(t *testing.T) {
			tb, packets := warmCentral3(t, c.tcp)
			before := packets()
			const runs = 20
			allocs := testing.AllocsPerRun(runs, func() { tb.Runner.RunFor(packetPathWindow) })
			// AllocsPerRun makes one warm-up call beyond runs.
			perWindow := float64(packets()-before) / (runs + 1)
			if perWindow < 50 {
				t.Fatalf("only %.0f frames per %v window: the flow is not running", perWindow, packetPathWindow)
			}
			if got := allocs / perWindow; got > maxAllocsPerPacket {
				t.Fatalf("%.1f allocations per %v window of %.0f frames = %.4f per frame, want at most %v",
					allocs, packetPathWindow, perWindow, got, maxAllocsPerPacket)
			}
		})
	}
}

// BenchmarkPacketPath prices one warm 10 ms Central3 window per op (the
// steady state TestPacketPathSteadyStateAllocs guards) and reports the
// allocations per frame the flow sent.
func BenchmarkPacketPath(b *testing.B) {
	for _, c := range []struct {
		name string
		tcp  bool
	}{{"udp", false}, {"tcp", true}} {
		b.Run(c.name, func(b *testing.B) {
			tb, packets := warmCentral3(b, c.tcp)
			before := packets()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.Runner.RunFor(packetPathWindow)
			}
			b.StopTimer()
			b.ReportMetric(float64(packets()-before)/float64(b.N), "frames/op")
		})
	}
}
