package experiment

import (
	"time"

	"netco/internal/topo"
)

// KSweepPoint is one row of the redundancy-vs-performance sweep: how the
// combiner scales with the parallelism k (the paper evaluates k ∈ {3, 5};
// the sweep fills in the curve and anchors it at k=1).
type KSweepPoint struct {
	// K is the parallelism; Tolerated the number of simultaneously
	// misbehaving routers the majority out-votes (⌈k/2⌉−1).
	K         int
	Tolerated int
	TCPMbps   float64
	UDPMbps   float64
	AvgRTT    time.Duration
}

// RunKSweep measures Central-mode combiners at k = 1, 2, 3, 4, 5 and 7.
func RunKSweep(p Params) []KSweepPoint {
	ks := []int{1, 2, 3, 4, 5, 7}
	out := make([]KSweepPoint, 0, len(ks))
	for _, k := range ks {
		build := func() *topo.Testbed { return buildCentralK(p, k) }
		out = append(out, KSweepPoint{
			K: k, Tolerated: (k+1)/2 - 1,
			TCPMbps: runTCP(p, ScenCentral3, build).Mbps,
			UDPMbps: runUDPMax(p, ScenCentral3, build).Mbps,
			AvgRTT:  runPing(p, ScenCentral3, build).AvgRTT,
		})
	}
	return out
}

func buildCentralK(p Params, k int) *topo.Testbed {
	tp := p.TestbedParams(ScenCentral3, nil)
	tp.K = k
	return topo.BuildTestbed(tp)
}
