package trace_test

import (
	"math"
	"testing"
	"time"

	"netco/internal/netem"
	"netco/internal/openflow"
	"netco/internal/packet"
	"netco/internal/sim"
	"netco/internal/switching"
	"netco/internal/trace"
	"netco/internal/traffic"
)

// TestAggregatorMatchesTracerStatistics runs the same packet stream
// through the per-record Tracer and the streaming Aggregator and checks
// the aggregate reproduces the record-derived statistics within the
// sketch's relative-error bound.
func TestAggregatorMatchesTracerStatistics(t *testing.T) {
	sched := sim.NewScheduler()
	net := netem.New(sched)
	sw := switching.New(sched, switching.Config{Name: "sw"})
	h1 := traffic.NewHost(sched, "h1", packet.HostMAC(1), packet.HostIP(1), traffic.HostConfig{})
	h2 := traffic.NewHost(sched, "h2", packet.HostMAC(2), packet.HostIP(2), traffic.HostConfig{})
	net.Connect(h1, 0, sw, 0, netem.LinkConfig{Bandwidth: 100e6, Delay: time.Microsecond})
	net.Connect(h2, 0, sw, 1, netem.LinkConfig{Bandwidth: 100e6, Delay: time.Microsecond})
	sw.Table().Add(&openflow.FlowEntry{
		Priority: 1,
		Match:    openflow.MatchAll().WithDlDst(h2.MAC()),
		Actions:  []openflow.Action{openflow.Output(1)},
	})

	tr := trace.New(256)
	tr.Attach(sw)
	agg := trace.NewAggregator()
	agg.Attach(sw) // chained on the same switch

	src := traffic.NewUDPSource(h1, 5000, h2.Endpoint(6000),
		traffic.UDPSourceConfig{Rate: 5e6, PayloadSize: 700})
	traffic.NewUDPSink(h2, 6000)
	src.Start()
	sched.RunFor(100 * time.Millisecond)
	src.Stop()
	sched.Run()

	wire := agg.WireLen()
	if wire.N() == 0 || wire.N() != tr.Total() {
		t.Fatalf("capture counts diverged: aggregator %d, tracer %d", wire.N(), tr.Total())
	}

	recs := tr.Records()
	var sum, min, max float64
	min = math.Inf(1)
	for _, r := range recs {
		v := float64(r.Pkt.WireLen)
		sum += v
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	exactMean := sum / float64(len(recs))

	if wire.N() != uint64(len(recs)) {
		t.Fatalf("wire sketch n=%d, want %d", wire.N(), len(recs))
	}
	if wire.Min() != min || wire.Max() != max {
		t.Fatalf("sketch min/max %v/%v, want %v/%v", wire.Min(), wire.Max(), min, max)
	}
	if math.Abs(wire.Mean()-exactMean) > 1e-9*exactMean {
		t.Fatalf("sketch mean %v, want %v", wire.Mean(), exactMean)
	}
	// Quantiles land within the sketch's 1% relative-error bound.
	if q := wire.Quantile(0.5); math.Abs(q-exactMean) > 0.02*exactMean {
		// All frames are equal-sized here, so the median must be close
		// to the mean.
		t.Fatalf("median %v far from %v", q, exactMean)
	}
	gap := agg.Gap()
	if gap.N() != uint64(len(recs))-1 {
		t.Fatalf("gap sketch n=%d, want %d", gap.N(), len(recs)-1)
	}
}
