// Benchmarks regenerating the paper's evaluation, one per table/figure,
// plus ablations of the design choices called out in DESIGN.md.
//
// Each benchmark runs a complete deterministic simulation per iteration
// and reports the headline quantity as a custom metric (Mbit/s, µs RTT,
// µs jitter), so `go test -bench=. -benchmem` reproduces the paper's
// numbers directly in the benchmark output. Durations use the Quick
// calibration; `netco-sweep -full -kinds tcp,udp,load,ping,jitter
// -scenarios all` is the paper-length run. A figure's CPU profile:
// go test -run '^$' -bench 'Fig5UDPThroughput/Central3' -cpuprofile cpu.out .
package netco_test

import (
	"fmt"
	"testing"
	"time"

	"netco"
)

func quick() netco.Params {
	return netco.DefaultParams().Quick()
}

// BenchmarkTable1Row regenerates one Table I column (TCP + UDP + RTT) per
// scenario.
func BenchmarkTable1Row(b *testing.B) {
	for _, s := range netco.TableScenarios {
		s := s
		b.Run(s.String(), func(b *testing.B) {
			p := quick()
			var tcp, udp float64
			var rtt time.Duration
			for i := 0; i < b.N; i++ {
				tcp = netco.RunTCP(p, s).Mbps
				udp = netco.RunUDPMax(p, s).Mbps
				rtt = netco.RunPing(p, s).AvgRTT
			}
			b.ReportMetric(tcp, "tcp-Mbit/s")
			b.ReportMetric(udp, "udp-Mbit/s")
			b.ReportMetric(float64(rtt.Microseconds()), "rtt-µs")
		})
	}
}

// BenchmarkFig4TCPThroughput regenerates Fig. 4 (TCP throughput, six
// scenarios).
func BenchmarkFig4TCPThroughput(b *testing.B) {
	for _, s := range netco.AllScenarios {
		s := s
		b.Run(s.String(), func(b *testing.B) {
			p := quick()
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = netco.RunTCP(p, s).Mbps
			}
			b.ReportMetric(mbps, "Mbit/s")
		})
	}
}

// BenchmarkFig5UDPThroughput regenerates Fig. 5 (max UDP throughput at
// <0.5 % loss, six scenarios).
func BenchmarkFig5UDPThroughput(b *testing.B) {
	for _, s := range netco.AllScenarios {
		s := s
		b.Run(s.String(), func(b *testing.B) {
			p := quick()
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = netco.RunUDPMax(p, s).Mbps
			}
			b.ReportMetric(mbps, "Mbit/s")
		})
	}
}

// BenchmarkFig6LossCorrelation regenerates Fig. 6 (throughput↔loss on
// Central3).
func BenchmarkFig6LossCorrelation(b *testing.B) {
	p := quick()
	rates := []float64{100e6, 250e6, 400e6}
	var knee float64
	for i := 0; i < b.N; i++ {
		pts := netco.RunFig6(p, rates)
		knee = pts[len(pts)-1].Loss
	}
	b.ReportMetric(knee*100, "loss-%@400Mbit/s")
}

// BenchmarkFig7PingRTT regenerates Fig. 7 (echo RTT, five scenarios).
func BenchmarkFig7PingRTT(b *testing.B) {
	for _, s := range netco.TableScenarios {
		s := s
		b.Run(s.String(), func(b *testing.B) {
			p := quick()
			var rtt time.Duration
			for i := 0; i < b.N; i++ {
				rtt = netco.RunPing(p, s).AvgRTT
			}
			b.ReportMetric(float64(rtt.Microseconds()), "rtt-µs")
		})
	}
}

// BenchmarkFig8Jitter regenerates Fig. 8 (jitter vs UDP packet size) for
// the reference scenario.
func BenchmarkFig8Jitter(b *testing.B) {
	for _, size := range []int{128, 1470} {
		size := size
		b.Run(fmt.Sprintf("Central3/%dB", size), func(b *testing.B) {
			p := quick()
			var jitter time.Duration
			for i := 0; i < b.N; i++ {
				pts := netco.RunJitter(p, netco.Central3, []int{size})
				jitter = pts[0].Jitter
			}
			b.ReportMetric(float64(jitter.Microseconds()), "jitter-µs")
		})
	}
}

// BenchmarkCaseStudy regenerates the §VI datacenter-attack case study.
func BenchmarkCaseStudy(b *testing.B) {
	p := netco.DefaultParams()
	var r netco.CaseStudyResult
	for i := 0; i < b.N; i++ {
		r = netco.RunCaseStudy(p)
	}
	b.ReportMetric(float64(r.Attack.RequestsAtFirewall), "attack-reqs-at-fw")
	b.ReportMetric(float64(r.Protected.ResponsesAtVM), "protected-responses")
}

// BenchmarkVirtualNetCo regenerates the §VII virtualized-combiner
// demonstration.
func BenchmarkVirtualNetCo(b *testing.B) {
	p := quick()
	var r netco.VirtualResult
	for i := 0; i < b.N; i++ {
		r = netco.RunVirtual(p)
	}
	b.ReportMetric(r.CombinedMbps, "combined-Mbit/s")
	b.ReportMetric(r.BaselineMbps, "baseline-Mbit/s")
}

// BenchmarkAblationCompareMode compares the three copy-equality notions
// (§III: bit-by-bit, hashed, header-only) on Central3 UDP throughput.
func BenchmarkAblationCompareMode(b *testing.B) {
	modes := []struct {
		name string
		mode netco.CompareMode
	}{
		{"bitexact", netco.CompareBitExact},
		{"hashed", netco.CompareHashed},
		{"header", netco.CompareHeader},
	}
	for _, m := range modes {
		m := m
		b.Run(m.name, func(b *testing.B) {
			p := quick()
			p.CompareMode = m.mode
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = netco.RunUDPMax(p, netco.Central3).Mbps
			}
			b.ReportMetric(mbps, "Mbit/s")
		})
	}
}

// BenchmarkAblationHoldTimeout sweeps the compare's bounded waiting time
// (§IV: too short risks suppressing slow honest copies, too long grows
// the cache).
func BenchmarkAblationHoldTimeout(b *testing.B) {
	for _, hold := range []time.Duration{2 * time.Millisecond, 20 * time.Millisecond, 200 * time.Millisecond} {
		hold := hold
		b.Run(hold.String(), func(b *testing.B) {
			p := quick()
			p.CompareHold = hold
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = netco.RunUDPMax(p, netco.Central3).Mbps
			}
			b.ReportMetric(mbps, "Mbit/s")
		})
	}
}

// BenchmarkEngineIngest is the microbenchmark of the compare decision
// core itself: cost per 3-copy majority decision.
func BenchmarkEngineIngest(b *testing.B) {
	// Covered in detail by internal/core benches; this repo-level bench
	// tracks the end-to-end simulator event rate instead: packets
	// through a Central3 testbed per wall second.
	p := quick()
	tb := netco.BuildTestbed(p.TestbedParams(netco.Central3, nil))
	defer tb.Close()
	sink := netco.NewUDPSink(tb.H2, 5001)
	src := netco.NewUDPSource(tb.H1, 4001, tb.H2.Endpoint(5001), netco.UDPSourceConfig{
		Rate: 100e6, PayloadSize: 1470,
	})
	src.Start()
	b.ReportAllocs()
	b.ResetTimer()
	start := tb.Sched.Executed()
	for i := 0; i < b.N; i++ {
		tb.Sched.RunFor(time.Millisecond)
	}
	b.StopTimer()
	executed := tb.Sched.Executed() - start
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(executed)/secs, "events/s")
	}
	src.Stop()
	if b.N > 100 && sink.Stats().Unique == 0 {
		b.Fatal("no traffic flowed")
	}
}

// BenchmarkArchitectures compares the three compare placements at k=3
// (out-of-band, inband middlebox, controller) — the §IX comparison.
func BenchmarkArchitectures(b *testing.B) {
	for _, s := range []netco.Scenario{netco.Central3, netco.Inline3, netco.POX3} {
		s := s
		b.Run(s.String(), func(b *testing.B) {
			p := quick()
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = netco.RunTCP(p, s).Mbps
			}
			b.ReportMetric(mbps, "tcp-Mbit/s")
		})
	}
}
