package experiment

import (
	"time"

	"netco/internal/metrics"
	"netco/internal/sim"
	"netco/internal/topo"
	"netco/internal/traffic"
)

// UDPPoint is one offered-load measurement (a Fig. 6 sample).
type UDPPoint struct {
	Scenario Scenario
	// OfferedMbps is the source rate; AchievedMbps the unique goodput
	// at the sink; Loss the fraction of datagrams never delivered.
	OfferedMbps  float64
	AchievedMbps float64
	Loss         float64
	// Jitter is the RFC 3550 estimate at this load.
	Jitter time.Duration
}

// UDPMaxResult is one scenario's Fig. 5 bar: the maximum throughput with
// loss below the iperf criterion, found by adjusting -b "until a maximum
// is reached" (§V-A).
type UDPMaxResult struct {
	Scenario Scenario
	Mbps     float64
	Loss     float64
}

// measureUDP runs one offered load on a fresh testbed and reports the
// outcome.
func measureUDP(p Params, s Scenario, rate float64, payload int) UDPPoint {
	return measureUDPOn(p, s, func() *topo.Testbed { return p.Build(s) }, rate, payload)
}

func measureUDPOn(p Params, s Scenario, build func() *topo.Testbed, rate float64, payload int) UDPPoint {
	tb := build()
	defer tb.Close()
	rng := sim.NewRNG(p.Seed)

	sink := traffic.NewUDPSink(tb.H2, 5001)
	src := traffic.NewUDPSource(tb.H1, 4001, tb.H2.Endpoint(5001), traffic.UDPSourceConfig{
		Rate:        rate,
		PayloadSize: payload,
		Jitter:      100 * time.Microsecond,
		Rng:         rng,
	})
	tb.Runner.RunFor(50 * time.Millisecond) // settle
	src.Start()
	tb.Runner.RunFor(p.UDPDuration)
	src.Stop()
	tb.Runner.RunFor(2 * p.CompareHold) // drain in-flight copies

	st := sink.Stats()
	return UDPPoint{
		Scenario:     s,
		OfferedMbps:  metrics.Mbps(rate),
		AchievedMbps: metrics.Mbps(st.Goodput()),
		Loss:         st.LossRate(src.Sent),
		Jitter:       st.Jitter,
	}
}

// RunUDPMax finds the scenario's maximum UDP throughput with loss below
// UDPLossGoal via bisection over the offered rate (Fig. 5).
func RunUDPMax(p Params, s Scenario) UDPMaxResult {
	return runUDPMax(p, s, func() *topo.Testbed { return p.Build(s) })
}

// runUDPMax is RunUDPMax against an arbitrary testbed builder.
func runUDPMax(p Params, s Scenario, build func() *topo.Testbed) UDPMaxResult {
	const payload = 1470 // iperf default datagram payload
	lo, hi := 1e6, p.TrunkRate
	best := UDPMaxResult{Scenario: s}
	for i := 0; i < 9; i++ {
		rate := (lo + hi) / 2
		pt := measureUDPOn(p, s, build, rate, payload)
		if pt.Loss <= p.UDPLossGoal {
			if pt.AchievedMbps > best.Mbps {
				best.Mbps = pt.AchievedMbps
				best.Loss = pt.Loss
			}
			lo = rate
		} else {
			hi = rate
		}
	}
	return best
}

// RunFig6 sweeps offered load for Central3 and reports the
// throughput↔loss correlation (Fig. 6).
func RunFig6(p Params) []UDPPoint {
	rates := []float64{50e6, 100e6, 150e6, 200e6, 225e6, 250e6, 275e6, 300e6, 350e6, 400e6}
	out := make([]UDPPoint, 0, len(rates))
	for _, r := range rates {
		out = append(out, measureUDP(p, ScenCentral3, r, 1470))
	}
	return out
}
