package experiment

import (
	"time"

	"netco/internal/netem"
)

// ImpairParams is the calibration's impairment surface: the netem
// vocabulary (correlated loss, Gilbert-Elliott loss, corruption,
// duplication, jitter reordering) expressed as percentages so CLI grids
// read like tc netem command lines. Zero values disable each stage; the
// whole struct zero means clean trunks and the exact pre-impairment
// digests.
type ImpairParams struct {
	// LossPct is i.i.d. (or, with LossCorrPct > 0, correlated) loss on
	// every trunk, in percent.
	LossPct     float64
	LossCorrPct float64
	// GE enables a Gilbert-Elliott loss stage when GE.PGoodBad > 0.
	GE netem.LossGE
	// CorruptPct flips one bit of that percentage of trunk packets.
	CorruptPct float64
	// DupPct duplicates that percentage of trunk packets.
	DupPct float64
	// ReorderPct of packets gain a uniform extra delay in
	// (0, ReorderJitter]; both must be positive to enable the stage.
	ReorderPct    float64
	ReorderJitter time.Duration
}

// Enabled reports whether any impairment stage is configured.
func (ip ImpairParams) Enabled() bool {
	return ip.LossPct > 0 || ip.GE.PGoodBad > 0 || ip.CorruptPct > 0 ||
		ip.DupPct > 0 || (ip.ReorderPct > 0 && ip.ReorderJitter > 0)
}

// Spec expands the knobs into the netem pipeline recipe, seeded with the
// run seed. Stage order is fixed — loss models first (a lost packet
// consumes no corruption/duplication/jitter draws), then corruption,
// duplication, reordering — so a given knob combination always means the
// same pipeline.
func (ip ImpairParams) Spec(seed int64) *netem.ImpairSpec {
	if !ip.Enabled() {
		return nil
	}
	spec := &netem.ImpairSpec{Seed: seed}
	if ip.LossPct > 0 {
		spec.Stages = append(spec.Stages, netem.Loss{P: ip.LossPct / 100, Corr: ip.LossCorrPct / 100})
	}
	if ip.GE.PGoodBad > 0 {
		spec.Stages = append(spec.Stages, ip.GE)
	}
	if ip.CorruptPct > 0 {
		spec.Stages = append(spec.Stages, netem.Corrupt{P: ip.CorruptPct / 100})
	}
	if ip.DupPct > 0 {
		spec.Stages = append(spec.Stages, netem.Duplicate{P: ip.DupPct / 100})
	}
	if ip.ReorderPct > 0 && ip.ReorderJitter > 0 {
		spec.Stages = append(spec.Stages, netem.Reorder{P: ip.ReorderPct / 100, Jitter: ip.ReorderJitter})
	}
	return spec
}

// ImpairCounters aggregates the per-stage LinkStats counters across a
// testbed's links, both directions.
type ImpairCounters struct {
	ImpairDrops uint64 `json:"impair_drops"`
	Corrupted   uint64 `json:"corrupted"`
	Duplicated  uint64 `json:"duplicated"`
	Reordered   uint64 `json:"reordered"`
}

// CollectImpair sums the impairment counters over every link of the
// network. Call after the run completes (Stats is a teardown-time API).
func CollectImpair(n *netem.Network) ImpairCounters {
	var c ImpairCounters
	for _, l := range n.Links() {
		for end := 0; end < 2; end++ {
			st := l.Stats(end)
			c.ImpairDrops += st.ImpairDrops
			c.Corrupted += st.Corrupted
			c.Duplicated += st.Duplicated
			c.Reordered += st.Reordered
		}
	}
	return c
}

// ImpairResult is one impairment run's outcome: UDP delivery through the
// configured noise plus the pipeline's own accounting, which is what the
// goodput-surface sweeps chart.
type ImpairResult struct {
	Scenario Scenario
	// Sent/Delivered/Dups count the measurement stream's datagrams.
	// Dups includes both impairment duplicates that survived to the sink
	// and combiner release duplicates — the collision the duplication
	// grid is designed to expose.
	Sent, Delivered, Dups uint64
	DeliveredFrac         float64
	GoodputMbps           float64
	Counters              ImpairCounters
}

// RunImpair measures UDP delivery across the scenario's fabric with the
// Params impairment pipeline on every trunk: the goodput-vs-noise unit
// behind the impairment sweeps. It is RunChaos with an empty fault plan —
// the same stream over the same window — so the two kinds' delivered
// fractions compare directly.
func RunImpair(p Params, s Scenario) ImpairResult {
	p.ChaosCrashes, p.ChaosFlapPeriod, p.ChaosCompareRestart = 0, 0, false
	cr := RunChaos(p, s)
	return ImpairResult{
		Scenario: s, Sent: cr.Sent, Delivered: cr.Delivered, Dups: cr.Dups,
		DeliveredFrac: cr.DeliveredFrac,
		GoodputMbps:   float64(cr.Delivered) * chaosPayload * 8 / p.UDPDuration.Seconds() / 1e6,
		Counters:      cr.Impair,
	}
}
