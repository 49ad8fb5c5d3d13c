package trace

import (
	"time"

	"netco/internal/metrics"
	"netco/internal/packet"
	"netco/internal/switching"
)

// Aggregator is the capture mode for fluid-dominated paths: instead of
// retaining per-packet records (whose volume a million-flow hybrid
// scenario makes both unaffordable and mostly meaningless — fluid flows
// have no packets to record), it folds every captured transmission into
// mergeable log-bucketed histogram sketches (metrics.Hist). The
// sketches plug straight into the experiment Result/Summary/digest
// machinery: they marshal deterministically and merge exactly across
// runs and partitions.
type Aggregator struct {
	wire metrics.Hist // frame wire length, bytes
	gap  metrics.Hist // spacing between consecutive captures, µs

	last    time.Duration
	hasLast bool
}

// NewAggregator creates an empty streaming capture.
func NewAggregator() *Aggregator { return &Aggregator{} }

// Attach folds every transmission of sw into the sketches, chaining any
// existing OnTransmit hook (a Tracer and an Aggregator can share a
// switch).
func (a *Aggregator) Attach(sw *switching.Switch) {
	prev := sw.OnTransmit
	sched := sw.Scheduler()
	sw.OnTransmit = func(outPort int, pkt *packet.Packet) {
		if prev != nil {
			prev(outPort, pkt)
		}
		a.Capture(sched.Now(), pkt)
	}
}

// Capture folds one transmission. Unlike Tracer.Capture it keeps
// nothing per-packet — O(1) memory however long the run.
func (a *Aggregator) Capture(at time.Duration, pkt *packet.Packet) {
	a.wire.Add(float64(pkt.WireLen()))
	if a.hasLast {
		a.gap.Add(float64(at-a.last) / float64(time.Microsecond))
	}
	a.last = at
	a.hasLast = true
}

// WireLen returns an independent copy of the wire-length sketch.
func (a *Aggregator) WireLen() metrics.Hist {
	var out metrics.Hist
	out.Merge(a.wire)
	return out
}

// Gap returns an independent copy of the inter-capture-gap sketch (µs).
func (a *Aggregator) Gap() metrics.Hist {
	var out metrics.Hist
	out.Merge(a.gap)
	return out
}
