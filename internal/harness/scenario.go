// Package harness is a seeded, deterministic Byzantine scenario fuzzer
// for the NetCo combiner. It composes random topologies, adversary
// placements and traffic mixes into a Scenario — a fully self-contained,
// JSON-serialisable genome — executes each scenario in an isolated
// simulation, and checks the paper's correctness claims as invariant
// oracles (Theorems 1–2, §III):
//
//   - masking: with k=3 and ≤1 compromised router per combiner, the
//     compare egress stream equals the honest-only run of the same
//     scenario (frame multisets per direction, IP-ID-normalised);
//   - detection: with k=2 and an active adversary, at least one alarm
//     fires;
//   - no-forgery: no frame egresses a compare unless a majority of that
//     combiner's routers emitted it;
//   - determinism: the same scenario yields a byte-identical observation
//     artifact on every execution, whatever the worker count.
//
// On violation the harness greedily shrinks the scenario and writes a
// minimized replayable artifact (see Artifact); `go test
// ./internal/harness/ -run TestHarnessReplay -harness.replay=<file>`
// re-executes it exactly (the package path must precede the custom flag
// or go test will not forward it to the test binary).
package harness

import (
	"fmt"
	"time"

	"netco/internal/chaos"
	"netco/internal/experiment"
	"netco/internal/netem"
)

// Topology names.
const (
	// TopoTestbed is the Fig. 3 shape: h1 – combiner – h2.
	TopoTestbed = "testbed"
	// TopoFatTree splices the combiner between two rack switches of a
	// 4-ary fat tree (the §VI case-study shape), so traffic crosses
	// honest switches before and after the combiner.
	TopoFatTree = "fattree"
	// TopoChain puts two combiners in series: h1 – C1 – C2 – h2, the
	// composition seam two independent deployments would form.
	TopoChain = "chain"
)

// Flow kinds.
const (
	FlowPing = "ping"
	FlowUDP  = "udp"
	FlowTCP  = "tcp"
)

// Chaos action kinds — one per lifecycle fault.
const (
	// ChaosRouterCrash cold-crashes a router (flow table, pipeline and
	// ingress blocks lost) and restarts it with its proactive rules
	// replayed by the combiner.
	ChaosRouterCrash = "router-crash"
	// ChaosCompareCrash crashes the compare node and restarts it with
	// every engine cache flushed.
	ChaosCompareCrash = "compare-crash"
	// ChaosLinkFlap toggles one edge↔router trunk link administratively
	// down and back up, optionally for several cycles.
	ChaosLinkFlap = "link-flap"
)

// chaosHealBoundMs is the latest window-relative instant a chaos plan may
// heal. It leaves the recovery probe (grace + pings + timeout) room to
// finish inside the drain, so Validate rejects plans the recovery oracle
// could not judge.
const chaosHealBoundMs = 110

// Atom kinds — one per adversary behavior.
const (
	AtomReroute = "reroute"
	AtomMirror  = "mirror"
	AtomDrop    = "drop"
	AtomModify  = "modify"
	AtomReplay  = "replay"
	AtomFlood   = "flood"
)

// Scenario is the genome: everything needed to reproduce one run. It is
// stored fully decoded in artifacts, so a replay does not depend on the
// generator staying bit-stable across versions.
type Scenario struct {
	// Seed drives all runtime randomness (probabilistic drops).
	Seed int64 `json:"seed"`
	// Topology is one of TopoTestbed, TopoFatTree, TopoChain.
	Topology string `json:"topology"`
	// K is the combiner parallelism: 3 runs the masking configuration,
	// 2 the detect-only configuration.
	K int `json:"k"`
	// TrunkMbps is the edge↔router line rate.
	TrunkMbps float64 `json:"trunk_mbps"`
	// Flows is the traffic mix; flow i derives its ports from i.
	Flows []Flow `json:"flows"`
	// Adversaries compromise at most one router per combiner.
	Adversaries []Adversary `json:"adversaries,omitempty"`
	// WeakenMajority is the deliberate-sabotage hook: it drops every
	// engine's release threshold to k/2 (one below a strict majority),
	// the off-by-one a correct no-forgery oracle must catch.
	WeakenMajority bool `json:"weaken_majority,omitempty"`
	// Chaos is the timed fault plan: crashes, restarts and link flaps
	// executed on virtual time during the traffic window. A non-empty
	// plan arms the recovery oracle and disarms masking and detection
	// (outage windows legitimately lose traffic and evidence).
	Chaos []ChaosAction `json:"chaos,omitempty"`
	// Impair attaches a deterministic impairment pipeline (loss,
	// Gilbert-Elliott bursts, duplication, corruption, reordering) to
	// every trunk link. Impaired scenarios keep no-forgery and
	// determinism armed but disarm masking, detection and the recovery
	// violation: honest wire noise legitimately loses traffic and
	// evidence, exactly like an outage window (see Impaired).
	Impair *ImpairConfig `json:"impair,omitempty"`
}

// ImpairConfig is the genome form of a trunk impairment pipeline. All
// probabilities are percentages (netem CLI convention); zero fields
// leave the corresponding stage out. The per-stage PRNGs seed from
// (Scenario.Seed, link creation index, direction, stage index), so the
// noise pattern is a pure function of the genome.
type ImpairConfig struct {
	// LossPct is i.i.d. (or, with LossCorrPct, correlated) wire loss.
	LossPct     float64 `json:"loss_pct,omitempty"`
	LossCorrPct float64 `json:"loss_corr_pct,omitempty"`
	// GEGoodBadPct/GEBadGoodPct configure a classic Gilbert-Elliott
	// burst-loss chain (lossy in the bad state, clean in the good one).
	GEGoodBadPct float64 `json:"ge_good_bad_pct,omitempty"`
	GEBadGoodPct float64 `json:"ge_bad_good_pct,omitempty"`
	// DupPct duplicates frames on the wire. Single duplication keeps
	// per-port copies of a frame below the compare's DoS threshold of 3,
	// so trunk dups exercise the dup-suppression path without demanding
	// an alarm.
	DupPct float64 `json:"dup_pct,omitempty"`
	// CorruptPct flips one bit per affected frame. Bounded at 5% so the
	// chance of two trunk copies of the same frame taking the *same*
	// flip — the only way line noise could forge a majority — stays
	// negligible (~1e-9 per frame at the bound) and no-forgery can stay
	// armed under noise.
	CorruptPct float64 `json:"corrupt_pct,omitempty"`
	// ReorderPct delays the affected fraction by up to ReorderUs extra
	// microseconds, reordering them past later sends.
	ReorderPct float64 `json:"reorder_pct,omitempty"`
	ReorderUs  int     `json:"reorder_us,omitempty"`
}

// Impaired reports whether the scenario carries an active impairment
// pipeline — the predicate the oracle gates key off.
func (s Scenario) Impaired() bool {
	return s.Impair != nil && s.Impair.params().Enabled()
}

// validate bounds the genome: magnitudes the oracles stay meaningful
// under. Heavier noise is the sweep CLI's business, not the fuzzer's.
func (c *ImpairConfig) validate() error {
	if c.LossPct < 0 || c.LossPct > 20 {
		return fmt.Errorf("loss_pct %g out of range [0,20]", c.LossPct)
	}
	if c.LossCorrPct < 0 || c.LossCorrPct > 90 {
		return fmt.Errorf("loss_corr_pct %g out of range [0,90]", c.LossCorrPct)
	}
	if c.LossCorrPct > 0 && c.LossPct == 0 {
		return fmt.Errorf("loss_corr_pct %g without loss_pct", c.LossCorrPct)
	}
	if (c.GEGoodBadPct > 0) != (c.GEBadGoodPct > 0) {
		return fmt.Errorf("gilbert-elliott needs both transition rates (got %g/%g)",
			c.GEGoodBadPct, c.GEBadGoodPct)
	}
	if c.GEGoodBadPct < 0 || c.GEGoodBadPct > 20 {
		return fmt.Errorf("ge_good_bad_pct %g out of range [0,20]", c.GEGoodBadPct)
	}
	if c.GEBadGoodPct < 0 || c.GEBadGoodPct > 100 {
		return fmt.Errorf("ge_bad_good_pct %g out of range [0,100]", c.GEBadGoodPct)
	}
	if c.DupPct < 0 || c.DupPct > 10 {
		return fmt.Errorf("dup_pct %g out of range [0,10]", c.DupPct)
	}
	if c.CorruptPct < 0 || c.CorruptPct > 5 {
		// The no-forgery bound, see the field comment.
		return fmt.Errorf("corrupt_pct %g out of range [0,5]", c.CorruptPct)
	}
	if c.ReorderPct < 0 || c.ReorderPct > 100 {
		return fmt.Errorf("reorder_pct %g out of range [0,100]", c.ReorderPct)
	}
	if c.ReorderPct > 0 && (c.ReorderUs < 1 || c.ReorderUs > 1000) {
		return fmt.Errorf("reorder_us %d out of range [1,1000]", c.ReorderUs)
	}
	if c.ReorderUs != 0 && c.ReorderPct == 0 {
		return fmt.Errorf("reorder_us %d without reorder_pct", c.ReorderUs)
	}
	return nil
}

// params is the genome in the experiment layer's units. ImpairParams
// owns which stages a configuration enables and their order, so Impaired
// and spec cannot disagree.
func (c *ImpairConfig) params() experiment.ImpairParams {
	return experiment.ImpairParams{
		LossPct:       c.LossPct,
		LossCorrPct:   c.LossCorrPct,
		GE:            netem.LossGE{PGoodBad: c.GEGoodBadPct / 100, PBadGood: c.GEBadGoodPct / 100, LossBad: 1},
		CorruptPct:    c.CorruptPct,
		DupPct:        c.DupPct,
		ReorderPct:    c.ReorderPct,
		ReorderJitter: time.Duration(c.ReorderUs) * time.Microsecond,
	}
}

// spec renders the genome as the netem pipeline configuration.
func (c *ImpairConfig) spec(seed int64) *netem.ImpairSpec {
	return c.params().Spec(seed)
}

// ChaosAction is one timed lifecycle fault. Times are in milliseconds
// relative to the start of the traffic window (millisecond granularity
// keeps genomes small and shrinkable; the underlying chaos.Plan is
// nanosecond-precise).
type ChaosAction struct {
	// Kind is ChaosRouterCrash, ChaosCompareCrash or ChaosLinkFlap.
	Kind string `json:"kind"`
	// Router is the global router index (router-crash, link-flap),
	// numbered like Adversary.Router.
	Router int `json:"router,omitempty"`
	// Combiner is the combiner index (compare-crash).
	Combiner int `json:"combiner,omitempty"`
	// Side selects which trunk link flaps (link-flap): 0 the left-edge
	// side, 1 the right-edge side.
	Side int `json:"side,omitempty"`
	// AtMs is the first failure instant, DownMs each outage's duration.
	AtMs   int `json:"at_ms"`
	DownMs int `json:"down_ms"`
	// Cycles repeats the outage (0 and 1 both mean once); PeriodMs is the
	// failure-to-failure flap period (0 defaults to 2×DownMs).
	Cycles   int `json:"cycles,omitempty"`
	PeriodMs int `json:"period_ms,omitempty"`
}

// action renders the ms-granular genome form as a chaos.Action on target,
// anchored at the traffic window start.
func (a ChaosAction) action(target chaos.Target) chaos.Action {
	return chaos.Action{
		Target: target,
		At:     settleTime + time.Duration(a.AtMs)*time.Millisecond,
		Down:   time.Duration(a.DownMs) * time.Millisecond,
		Cycles: a.Cycles,
		Period: time.Duration(a.PeriodMs) * time.Millisecond,
	}
}

// chaosPlan is the scenario's fault plan with nil targets, enough to
// validate it and read its last heal; scheduleChaos builds the same plan
// with the targets once the fabric exists.
func (s Scenario) chaosPlan() chaos.Plan {
	var p chaos.Plan
	for _, a := range s.Chaos {
		p.Actions = append(p.Actions, a.action(nil))
	}
	return p
}

// Flow is one traffic stream between the two end hosts.
type Flow struct {
	// Kind is FlowPing, FlowUDP or FlowTCP.
	Kind string `json:"kind"`
	// Reverse sends right→left (h2 to h1) instead of left→right.
	Reverse bool `json:"reverse,omitempty"`
	// Count is the ping cycle count (FlowPing).
	Count int `json:"count,omitempty"`
	// RateMbps and PayloadSize shape the datagram stream (FlowUDP).
	RateMbps    float64 `json:"rate_mbps,omitempty"`
	PayloadSize int     `json:"payload_size,omitempty"`
	// KiB bounds the transfer (FlowTCP): the flow sends KiB kibibytes
	// and quiesces.
	KiB int `json:"kib,omitempty"`
}

// Adversary compromises one router with a chain of behaviors.
type Adversary struct {
	// Router is the global router index: combiner Router/K, local index
	// Router%K (TopoChain has 2K routers; the others K).
	Router int `json:"router"`
	// Chain is applied in order, exactly like adversary.Chain.
	Chain []Atom `json:"chain"`
}

// Atom describes one adversary behavior. Directional atoms (reroute,
// mirror, flood) carry Dir — the router port they interfere with: 0 is
// the left-edge side, 1 the right-edge side. Reroute and mirror act on
// packets *arriving* on Dir and send them back out of Dir (the wrong
// way); flood injects *toward* the edge on Dir.
type Atom struct {
	Kind string `json:"kind"`
	// Scope restricts the match: "all", "udp", "tcp" or "icmp".
	Scope string `json:"scope,omitempty"`
	// Dir is the router port (0 or 1) for directional atoms.
	Dir int `json:"dir,omitempty"`
	// Probability is the drop fraction (AtomDrop; 0 or 1 = always).
	Probability float64 `json:"probability,omitempty"`
	// Rewrite selects the modify flavour: "tos", "vlan" or "tp_dst".
	Rewrite string `json:"rewrite,omitempty"`
	// Extra is the replay amplification (AtomReplay; ≥2 so the copies of
	// one frame cross the compare's DoS threshold).
	Extra int `json:"extra,omitempty"`
	// RateKpps and Vary shape the flood (AtomFlood).
	RateKpps float64 `json:"rate_kpps,omitempty"`
	Vary     bool    `json:"vary,omitempty"`
}

// Combiners returns how many combiners the topology contains.
func (s Scenario) Combiners() int {
	if s.Topology == TopoChain {
		return 2
	}
	return 1
}

// Validate rejects scenarios the executor cannot run — the guard that
// makes replaying artifacts from disk safe.
func (s Scenario) Validate() error {
	switch s.Topology {
	case TopoTestbed, TopoFatTree, TopoChain:
	default:
		return fmt.Errorf("harness: unknown topology %q", s.Topology)
	}
	if s.K != 2 && s.K != 3 {
		return fmt.Errorf("harness: k=%d out of range (want 2 or 3)", s.K)
	}
	if s.TrunkMbps <= 0 || s.TrunkMbps > 10000 {
		return fmt.Errorf("harness: trunk rate %g Mbit/s out of range", s.TrunkMbps)
	}
	if len(s.Flows) == 0 || len(s.Flows) > 16 {
		return fmt.Errorf("harness: %d flows out of range [1,16]", len(s.Flows))
	}
	for i, f := range s.Flows {
		switch f.Kind {
		case FlowPing:
			if f.Count <= 0 || f.Count > 10 {
				return fmt.Errorf("harness: flow %d: ping count %d out of range [1,10]", i, f.Count)
			}
		case FlowUDP:
			if f.RateMbps <= 0 || f.RateMbps > 50 {
				return fmt.Errorf("harness: flow %d: udp rate %g Mbit/s out of range", i, f.RateMbps)
			}
			if f.PayloadSize < 16 || f.PayloadSize > 1470 {
				return fmt.Errorf("harness: flow %d: payload %d out of range [16,1470]", i, f.PayloadSize)
			}
		case FlowTCP:
			if f.KiB <= 0 || f.KiB > 256 {
				return fmt.Errorf("harness: flow %d: tcp size %d KiB out of range [1,256]", i, f.KiB)
			}
		default:
			return fmt.Errorf("harness: flow %d: unknown kind %q", i, f.Kind)
		}
	}
	perCombiner := make(map[int]bool)
	for i, a := range s.Adversaries {
		if a.Router < 0 || a.Router >= s.Combiners()*s.K {
			return fmt.Errorf("harness: adversary %d: router %d out of range", i, a.Router)
		}
		ci := a.Router / s.K
		if perCombiner[ci] {
			// More than one compromised router per combiner is outside
			// the threat model of both theorems; neither oracle applies.
			return fmt.Errorf("harness: adversary %d: combiner %d already compromised", i, ci)
		}
		perCombiner[ci] = true
		if len(a.Chain) == 0 || len(a.Chain) > 4 {
			return fmt.Errorf("harness: adversary %d: chain length %d out of range [1,4]", i, len(a.Chain))
		}
		for j, atom := range a.Chain {
			if err := atom.validate(); err != nil {
				return fmt.Errorf("harness: adversary %d atom %d: %w", i, j, err)
			}
		}
	}
	if s.WeakenMajority && s.K != 3 {
		return fmt.Errorf("harness: weaken_majority requires k=3")
	}
	if len(s.Chaos) > 4 {
		return fmt.Errorf("harness: %d chaos actions out of range [0,4]", len(s.Chaos))
	}
	for i, a := range s.Chaos {
		if err := a.validate(s); err != nil {
			return fmt.Errorf("harness: chaos %d: %w", i, err)
		}
	}
	if s.Impair != nil {
		if err := s.Impair.validate(); err != nil {
			return fmt.Errorf("harness: impair: %w", err)
		}
		if err := s.Impair.spec(s.Seed).Validate(); err != nil {
			return fmt.Errorf("harness: impair: %w", err)
		}
	}
	if len(s.Chaos) > 0 {
		p := s.chaosPlan()
		if err := p.Validate(); err != nil {
			return fmt.Errorf("harness: %w", err)
		}
		if heal := p.LastRecovery() - settleTime; heal > chaosHealBoundMs*time.Millisecond {
			return fmt.Errorf("harness: chaos heals %v into the window, after the %dms bound — the recovery probe would not fit in the drain",
				heal, chaosHealBoundMs)
		}
	}
	return nil
}

// validate checks the fields the chaos.Action conversion cannot: target
// indices and the genome's own magnitude bounds. Timing sanity (negative
// instants, empty outages, period vs duty cycle) is enforced once, by
// chaos.Action.Validate on the converted plan.
func (a ChaosAction) validate(s Scenario) error {
	switch a.Kind {
	case ChaosRouterCrash, ChaosLinkFlap:
		if a.Router < 0 || a.Router >= s.Combiners()*s.K {
			return fmt.Errorf("router %d out of range", a.Router)
		}
	case ChaosCompareCrash:
		if a.Combiner < 0 || a.Combiner >= s.Combiners() {
			return fmt.Errorf("combiner %d out of range", a.Combiner)
		}
	default:
		return fmt.Errorf("unknown chaos kind %q", a.Kind)
	}
	if a.Side != 0 && a.Side != 1 {
		return fmt.Errorf("side %d out of range", a.Side)
	}
	// The plan anchors At at the window start (settleTime), so a small
	// negative offset would still convert to a schedulable instant;
	// reject it here instead.
	if a.AtMs < 0 {
		return fmt.Errorf("at_ms %d negative", a.AtMs)
	}
	if a.Cycles < 0 || a.Cycles > 5 {
		return fmt.Errorf("cycles %d out of range [0,5]", a.Cycles)
	}
	return nil
}

func (a Atom) validate() error {
	switch a.Scope {
	case "", "all", "udp", "tcp", "icmp":
	default:
		return fmt.Errorf("unknown scope %q", a.Scope)
	}
	if a.Dir != 0 && a.Dir != 1 {
		return fmt.Errorf("dir %d out of range", a.Dir)
	}
	switch a.Kind {
	case AtomReroute, AtomMirror:
	case AtomDrop:
		if a.Probability < 0 || a.Probability > 1 {
			return fmt.Errorf("drop probability %g out of range", a.Probability)
		}
	case AtomModify:
		switch a.Rewrite {
		case "tos", "vlan", "tp_dst":
		default:
			return fmt.Errorf("unknown rewrite %q", a.Rewrite)
		}
	case AtomReplay:
		if a.Extra < 2 || a.Extra > 4 {
			// Extra < 2 keeps per-port copies of a frame below the
			// compare's DoS threshold of 3 — an amplification too weak
			// for any oracle to demand an alarm.
			return fmt.Errorf("replay extra %d out of range [2,4]", a.Extra)
		}
	case AtomFlood:
		if a.RateKpps <= 0 || a.RateKpps > 20 {
			return fmt.Errorf("flood rate %g kpps out of range", a.RateKpps)
		}
	default:
		return fmt.Errorf("unknown atom kind %q", a.Kind)
	}
	return nil
}
