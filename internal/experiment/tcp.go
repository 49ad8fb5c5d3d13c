package experiment

import (
	"time"

	"netco/internal/metrics"
	"netco/internal/topo"
	"netco/internal/traffic"
)

// TCPResult is one scenario's Fig. 4 bar.
type TCPResult struct {
	Scenario Scenario
	// Mbps is the mean goodput over all runs; Runs the individual
	// measurements (alternating direction, as in §V-A).
	Mbps float64
	Runs []float64
	// Retransmits, FastRetransmits, Timeouts and DupAcks aggregate the
	// sender diagnostics across runs (they explain the Dup collapse).
	Retransmits     uint64
	FastRetransmits uint64
	Timeouts        uint64
	DupAcks         uint64
}

// RunTCP measures TCP bulk throughput for one scenario (Fig. 4): TCPRuns
// runs of TCPDuration each, alternating h1→h2 and h2→h1 as the paper
// does, each run on a fresh testbed.
func RunTCP(p Params, s Scenario) TCPResult {
	return runTCP(p, s, func() *topo.Testbed { return p.Build(s) })
}

// runTCP is RunTCP against an arbitrary testbed builder (the k sweep's).
func runTCP(p Params, s Scenario, build func() *topo.Testbed) TCPResult {
	res := TCPResult{Scenario: s}
	var sum metrics.Summary
	for run := 0; run < p.TCPRuns; run++ {
		tb := build()
		src, dst := tb.H1, tb.H2
		if run%2 == 1 {
			src, dst = tb.H2, tb.H1
		}
		// Let proactive state settle, then skip the connection's slow-
		// start transient (iperf's long runs amortise it; our shorter
		// windows measure the steady state directly).
		tb.Runner.RunFor(50 * time.Millisecond)
		flow := traffic.StartTCPFlow(src, dst, 40000+uint16(run), 5001, traffic.TCPConfig{})
		tb.Runner.RunFor(500 * time.Millisecond)
		warmupBytes := flow.Stats().GoodputBytes
		tb.Runner.RunFor(p.TCPDuration)
		flow.Stop()
		st := flow.Stats()
		goodput := metrics.Throughput(st.GoodputBytes-warmupBytes, p.TCPDuration)
		sum.Add(goodput)
		res.Runs = append(res.Runs, metrics.Mbps(goodput))
		res.Retransmits += st.Retransmits
		res.FastRetransmits += st.FastRetransmits
		res.Timeouts += st.Timeouts
		res.DupAcks += st.DupAcksSeen
		tb.Close()
	}
	if sum.N() > 0 {
		res.Mbps = metrics.Mbps(sum.Mean())
	}
	return res
}
