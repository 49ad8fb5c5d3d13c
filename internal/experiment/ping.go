package experiment

import (
	"time"

	"netco/internal/metrics"
	"netco/internal/topo"
	"netco/internal/traffic"
)

// PingScenarioResult is one scenario's Fig. 7 bar: the average of
// PingSeqs sequences of PingCount consecutive ICMP request/response
// cycles ("each bar represents the average of three sequences of 50
// consecutive ICMP request response cycles", §V-B).
type PingScenarioResult struct {
	Scenario Scenario
	AvgRTT   time.Duration
	MinRTT   time.Duration
	MaxRTT   time.Duration
	Sent     int
	Received int
}

// RunPing measures echo RTT for one scenario.
func RunPing(p Params, s Scenario) PingScenarioResult {
	return runPing(p, s, func() *topo.Testbed { return p.Build(s) })
}

// runPing is RunPing against an arbitrary testbed builder.
func runPing(p Params, s Scenario, build func() *topo.Testbed) PingScenarioResult {
	res := PingScenarioResult{Scenario: s}
	var all metrics.Summary
	for seq := 0; seq < p.PingSeqs; seq++ {
		tb := build()
		tb.Runner.RunFor(50 * time.Millisecond)
		pinger := traffic.NewPinger(tb.H1, tb.H2.Endpoint(0), traffic.PingerConfig{
			Count:    p.PingCount,
			Interval: 10 * time.Millisecond,
			ID:       uint16(seq + 1),
		})
		var got traffic.PingResult
		pinger.Run(func(r traffic.PingResult) { got = r })
		tb.Runner.RunFor(time.Duration(p.PingCount)*10*time.Millisecond + 2*time.Second)
		res.Sent += got.Sent
		res.Received += got.Received
		if got.RTT.N() > 0 {
			all.Add(got.RTT.Mean())
			if res.MinRTT == 0 || time.Duration(got.RTT.Min()*float64(time.Second)) < res.MinRTT {
				res.MinRTT = time.Duration(got.RTT.Min() * float64(time.Second))
			}
			if d := time.Duration(got.RTT.Max() * float64(time.Second)); d > res.MaxRTT {
				res.MaxRTT = d
			}
		}
		tb.Close()
	}
	res.AvgRTT = all.MeanDuration()
	return res
}
