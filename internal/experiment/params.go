// Package experiment regenerates the paper's evaluation: every figure
// (4–8), Table I, the §VI datacenter-attack case study and the §VII
// virtualized combiner, over the scenarios of §V-A (Linespeed, Central3,
// Central5, POX3, Dup3, Dup5).
//
// All physical constants live in Params so the calibration is in one
// place and ablations can perturb it.
package experiment

import (
	"time"

	"netco/internal/core"
	"netco/internal/netem"
	"netco/internal/switching"
	"netco/internal/topo"
	"netco/internal/traffic"
)

// Params holds every physical constant of the testbed plus workload
// durations. DefaultParams is calibrated so the *shape* of the paper's
// results holds and most absolute values land near Table I:
//
//   - 500 Mbit/s trunks make Linespeed TCP ≈ 500 × 1460/1538 ≈ 474 Mbit/s;
//   - the compare's 15 µs/copy CPU bounds Central3/Central5 (data AND ACK
//     segments traverse the combiner: 6 resp. 10 copies per TCP segment);
//   - the destination host's ≈67 kpps ingest bounds Dup3/Dup5 UDP, the
//     paper's "buffered on the destination host" effect;
//   - duplicate segments trigger dup-ACK storms that collapse Dup TCP;
//   - the compare's bounded packet cache forces cleanup passes at high
//     packet rates, which is what makes small-packet jitter worse (Fig. 8).
type Params struct {
	// HostLinkRate is the host↔edge and edge↔compare line rate (the
	// trusted components get fast dedicated links); TrunkRate the
	// edge↔router line rate that defines the scenario bottleneck.
	HostLinkRate float64
	TrunkRate    float64
	// PropDelay is the per-link propagation delay; QueueLimit the
	// per-link drop-tail queue in packets.
	PropDelay  time.Duration
	QueueLimit int

	// SwitchProc is the untrusted routers' per-packet pipeline cost;
	// EdgeProc the trusted edges'.
	SwitchProc  time.Duration
	SwitchQueue int
	EdgeProc    time.Duration
	EdgeQueue   int

	// HostIngest is the destination stack's per-packet receive cost
	// (1/HostIngest = the pps ceiling that binds Dup5); HostQueue its
	// buffer.
	HostIngest time.Duration
	HostQueue  int

	// ComparePerCopy is the C compare's per-copy CPU cost;
	// CompareQueue its ingest bound in copies; CompareHold the §IV
	// bounded waiting time; CompareCache the packet-cache capacity whose
	// cleanup passes (CompareCleanupPerEntry each) drive Fig. 8;
	// CompareBlock the DoS block duration.
	ComparePerCopy         time.Duration
	CompareQueue           int
	CompareHold            time.Duration
	CompareCache           int
	CompareCleanupPerEntry time.Duration
	CompareBlock           time.Duration

	// POXPerCopy is the controller compare's interpreter cost (the
	// paper: interpreted Python vs precompiled C); CtrlLatency the
	// one-way control-channel latency every POX3 copy pays twice.
	POXPerCopy  time.Duration
	POXQueue    int
	CtrlLatency time.Duration

	// Workload durations. The paper uses 10 s × 10 runs per direction;
	// these defaults trade a little averaging for wall-clock time and
	// are overridable from the CLI (-full restores paper-faithful
	// durations).
	TCPDuration time.Duration
	TCPRuns     int // alternating directions, as in §V-A
	UDPDuration time.Duration
	UDPLossGoal float64 // iperf criterion: max rate with loss below this
	PingCount   int     // cycles per sequence
	PingSeqs    int     // sequences averaged per bar (paper: 3 × 50)
	JitterRate  float64 // offered load for the Fig. 8 sweep
	Seed        int64

	// Churn knobs (KindChaos): ChaosCrashes routers cold-crash staggered
	// across the window, each down for ChaosCrashDown; ChaosFlapPeriod
	// > 0 flaps one trunk link at half duty for ChaosFlapCycles;
	// ChaosCompareRestart bounces the compare once mid-window.
	ChaosCrashes        int
	ChaosCrashDown      time.Duration
	ChaosFlapPeriod     time.Duration
	ChaosFlapCycles     int
	ChaosCompareRestart bool

	// Impair attaches the netem impairment pipeline (loss models,
	// corruption, duplication, reordering; see ImpairParams) to every
	// trunk link, seeded from the run seed. The zero value keeps trunks
	// clean and digests bit-identical to the pre-impairment engine.
	Impair ImpairParams

	// Partitions > 1 runs each simulation on the parallel engine with
	// that many domains, capped at the topology's unit count
	// (bit-identical to serial; see topo.Open). Workers bounds that
	// engine's goroutines (0 = GOMAXPROCS) and means nothing else.
	Partitions int
	Workers    int
}

// DefaultParams returns the calibrated configuration.
func DefaultParams() Params {
	return Params{
		HostLinkRate: 2e9,
		TrunkRate:    500e6,
		PropDelay:    16 * time.Microsecond,
		QueueLimit:   100,

		SwitchProc:  2 * time.Microsecond,
		SwitchQueue: 500,
		EdgeProc:    2 * time.Microsecond,
		EdgeQueue:   500,

		HostIngest: 15 * time.Microsecond,
		HostQueue:  64,

		ComparePerCopy:         15 * time.Microsecond,
		CompareQueue:           192,
		CompareHold:            20 * time.Millisecond,
		CompareCache:           768,
		CompareCleanupPerEntry: core.DefaultCleanupPerEntry,
		CompareBlock:           200 * time.Millisecond,

		POXPerCopy:  150 * time.Microsecond,
		POXQueue:    192,
		CtrlLatency: 200 * time.Microsecond,

		TCPDuration: 3 * time.Second,
		TCPRuns:     2,
		UDPDuration: 1 * time.Second,
		UDPLossGoal: 0.005,
		PingCount:   50,
		PingSeqs:    3,
		JitterRate:  20e6,
		Seed:        1,

		ChaosCrashes:    1,
		ChaosCrashDown:  40 * time.Millisecond,
		ChaosFlapPeriod: 0,
		ChaosFlapCycles: 3,
	}
}

// PaperFaithful stretches durations to the paper's methodology (10 s runs,
// 10 per direction).
func (p Params) PaperFaithful() Params {
	p.TCPDuration = 10 * time.Second
	p.TCPRuns = 10
	p.UDPDuration = 10 * time.Second
	return p
}

// Quick shrinks durations for smoke tests and testing.B benches.
func (p Params) Quick() Params {
	p.TCPDuration = 500 * time.Millisecond
	p.TCPRuns = 1
	p.UDPDuration = 300 * time.Millisecond
	p.PingCount = 20
	p.PingSeqs = 1
	return p
}

// HostLink is the calibrated host↔edge (and edge↔compare) link recipe.
// Exported so other builders (the fuzzing harness) share one calibration.
func (p Params) HostLink() netem.LinkConfig {
	return netem.LinkConfig{Bandwidth: p.HostLinkRate, Delay: p.PropDelay, QueueLimit: p.QueueLimit}
}

// TrunkLink is the calibrated edge↔router link recipe. The impairment
// pipeline rides the trunks only: hosts, edges and the compare keep
// their trusted clean links, matching the threat model (the unreliable
// part of the fabric is the routers and the wires between them).
func (p Params) TrunkLink() netem.LinkConfig {
	cfg := netem.LinkConfig{Bandwidth: p.TrunkRate, Delay: p.PropDelay, QueueLimit: p.QueueLimit}
	if p.Impair.Enabled() {
		cfg.Impairments = p.Impair.Spec(p.Seed)
	}
	return cfg
}

// TestbedParams expands the calibration into a topo build recipe for the
// scenario, with an optional compromise hook for attack experiments.
func (p Params) TestbedParams(s Scenario, compromise func(i int) switching.Behavior) topo.TestbedParams {
	tp := topo.TestbedParams{
		Kind:            s.kind(),
		K:               s.K(),
		HostLink:        p.HostLink(),
		RouterLink:      p.TrunkLink(),
		CompareLink:     netem.LinkConfig{Bandwidth: p.HostLinkRate, Delay: p.PropDelay, QueueLimit: 4 * p.QueueLimit},
		SwitchProcDelay: p.SwitchProc,
		SwitchProcQueue: p.SwitchQueue,
		EdgeProcDelay:   p.EdgeProc,
		EdgeProcQueue:   p.EdgeQueue,
		Host: traffic.HostConfig{
			IngestPerPacket: p.HostIngest,
			IngestQueue:     p.HostQueue,
			EchoResponder:   true,
		},
		Compare: core.CompareNodeConfig{
			Engine: core.Config{
				HoldTimeout:   p.CompareHold,
				CacheCapacity: p.CompareCache,
			},
			PerCopyCost:     p.ComparePerCopy,
			QueueLimit:      p.CompareQueue,
			CleanupPerEntry: p.CompareCleanupPerEntry,
			BlockDuration:   p.CompareBlock,
		},
		CtrlLatency:    p.CtrlLatency,
		POXPerCopyCost: p.POXPerCopy,
		POXQueueLimit:  p.POXQueue,
		POXEngine: core.Config{
			HoldTimeout:   p.CompareHold,
			CacheCapacity: p.CompareCache,
		},
		Compromise: compromise,
		Partitions: p.Partitions,
		Workers:    p.Workers,
	}
	return tp
}

// Build assembles the testbed for a scenario.
func (p Params) Build(s Scenario) *topo.Testbed {
	return topo.BuildTestbed(p.TestbedParams(s, nil))
}
