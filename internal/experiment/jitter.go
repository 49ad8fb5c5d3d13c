package experiment

import (
	"time"
)

// JitterPoint is one bar of Fig. 8: the jitter a scenario exhibits at one
// UDP packet size ("each bar representing the average of five
// measurements", §V-B).
type JitterPoint struct {
	Scenario    Scenario
	PayloadSize int
	Jitter      time.Duration
	Loss        float64
}

// Fig8Sizes are the payload sizes swept (bytes).
var Fig8Sizes = []int{128, 256, 512, 1024, 1470}

// RunJitter measures jitter for one scenario across packet sizes at the
// fixed JitterRate offered load: smaller packets mean a higher packet
// rate, which fills the compare's cache faster and triggers the cleanup
// passes behind the paper's "bigger packets lead to lower jitter"
// observation.
func RunJitter(p Params, s Scenario, sizes []int) []JitterPoint {
	if sizes == nil {
		sizes = Fig8Sizes
	}
	const runsPerBar = 5
	out := make([]JitterPoint, 0, len(sizes))
	for _, size := range sizes {
		var jitterSum time.Duration
		var lossSum float64
		for run := 0; run < runsPerBar; run++ {
			q := p
			q.Seed = p.Seed + int64(run)
			pt := measureUDP(q, s, p.JitterRate, size)
			jitterSum += pt.Jitter
			lossSum += pt.Loss
		}
		out = append(out, JitterPoint{
			Scenario:    s,
			PayloadSize: size,
			Jitter:      jitterSum / runsPerBar,
			Loss:        lossSum / runsPerBar,
		})
	}
	return out
}
