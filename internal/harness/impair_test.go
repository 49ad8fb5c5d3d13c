package harness

import (
	"bytes"
	"testing"

	"netco/internal/sim"
)

// impairAllStages is a pipeline with every stage kind active, at rates
// heavy enough that the noise demonstrably reaches the observation.
func impairAllStages() *ImpairConfig {
	return &ImpairConfig{
		LossPct:      2,
		LossCorrPct:  25,
		GEGoodBadPct: 1,
		GEBadGoodPct: 25,
		DupPct:       1,
		CorruptPct:   0.5,
		ReorderPct:   25,
		ReorderUs:    100,
	}
}

// TestImpairedScenarioClean runs an adversarial, fully impaired scenario
// through the whole oracle stack (including the serial/parallel
// determinism re-executions inside Check) and requires a clean verdict:
// under noise the armed oracles are no-forgery and determinism, and
// neither may fire on honest machinery. The clean twin's observation
// must differ — otherwise the pipeline never touched the wire and the
// verdict is vacuous.
func TestImpairedScenarioClean(t *testing.T) {
	for _, k := range []int{2, 3} {
		k := k
		t.Run("k="+itoa(k), func(t *testing.T) {
			t.Parallel()
			sc := Scenario{
				Seed:      11,
				Topology:  TopoTestbed,
				K:         k,
				TrunkMbps: 1000,
				Flows: []Flow{
					{Kind: FlowUDP, RateMbps: 10, PayloadSize: 256},
					{Kind: FlowPing, Count: 5, Reverse: true},
				},
				Adversaries: []Adversary{
					{Router: k - 1, Chain: []Atom{{Kind: AtomModify, Scope: "udp", Rewrite: "tos"}}},
				},
				Impair: impairAllStages(),
			}
			if !sc.Impaired() {
				t.Fatal("scenario not impaired")
			}
			res, err := Check(sc)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("impaired scenario violated oracles: %+v", res.Violations)
			}

			clean := sc
			clean.Impair = nil
			rc, err := Execute(clean)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(res.Obs.CanonicalJSON(), rc.Obs.CanonicalJSON()) {
				t.Fatal("impaired observation identical to clean twin: pipeline inactive")
			}
		})
	}
}

// TestImpairedChaosClean layers the impairment pipeline under a timed
// fault plan — a link flap cutting through the noise — and requires the
// full Check (with its 4-partition re-execution) to stay clean. This is
// the oracle-stack counterpart of netem's TestImpairChaosFlapResume: the
// loss-state machines must resume deterministically across outages in
// every engine mode, or the determinism oracle fires here.
func TestImpairedChaosClean(t *testing.T) {
	sc := Scenario{
		Seed:      23,
		Topology:  TopoTestbed,
		K:         3,
		TrunkMbps: 1000,
		Flows: []Flow{
			{Kind: FlowUDP, RateMbps: 10, PayloadSize: 256},
			{Kind: FlowPing, Count: 5, Reverse: true},
		},
		Chaos: []ChaosAction{
			{Kind: ChaosLinkFlap, Router: 1, Side: 0, AtMs: 20, DownMs: 10, Cycles: 2, PeriodMs: 30},
			{Kind: ChaosRouterCrash, Router: 0, AtMs: 40, DownMs: 20},
		},
		Impair: impairAllStages(),
	}
	res, err := Check(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("impair × chaos scenario violated oracles: %+v", res.Violations)
	}
	if res.Obs.Recovery == nil {
		t.Fatal("chaos scenario recorded no recovery observation")
	}
}

// TestImpairValidateBounds pins the genome's magnitude envelope.
func TestImpairValidateBounds(t *testing.T) {
	base := Scenario{
		Seed: 1, Topology: TopoTestbed, K: 3, TrunkMbps: 1000,
		Flows: []Flow{{Kind: FlowPing, Count: 3}},
	}
	bad := []ImpairConfig{
		{LossPct: 50},                        // beyond the loss cap
		{LossPct: -1},                        // negative
		{LossCorrPct: 25},                    // correlation without loss
		{GEGoodBadPct: 1},                    // GE missing the recovery rate
		{GEBadGoodPct: 25},                   // GE missing the entry rate
		{GEGoodBadPct: 40, GEBadGoodPct: 25}, // entry rate beyond cap
		{DupPct: 11},                         // beyond the dup cap
		{CorruptPct: 6},                      // beyond the no-forgery bound
		{ReorderPct: 120, ReorderUs: 50},     // not a probability
		{ReorderPct: 25},                     // reorder without jitter
		{ReorderPct: 25, ReorderUs: 5000},    // jitter beyond cap
		{ReorderUs: 50},                      // jitter without reorder
	}
	for i := range bad {
		sc := base
		sc.Impair = &bad[i]
		if err := sc.Validate(); err == nil {
			t.Errorf("config %d (%+v) validated, want error", i, bad[i])
		}
	}
	sc := base
	sc.Impair = impairAllStages()
	if err := sc.Validate(); err != nil {
		t.Errorf("in-bounds config rejected: %v", err)
	}
	sc.Impair = &ImpairConfig{}
	if err := sc.Validate(); err != nil {
		t.Errorf("empty config rejected: %v", err)
	}
	if sc.Impaired() {
		t.Error("empty config reports Impaired")
	}
}

// TestImpairedMatchesSpec: a genome is Impaired exactly when it renders a
// pipeline, so the oracle gates disarm only for noise that reaches the
// wire. Every single-stage genome on a small grid that validate accepts
// is checked, the half-configured stages (reorder without jitter)
// included in the grid.
func TestImpairedMatchesSpec(t *testing.T) {
	base := Scenario{
		Seed: 1, Topology: TopoTestbed, K: 3, TrunkMbps: 1000,
		Flows: []Flow{{Kind: FlowPing, Count: 3}},
	}
	var genomes []ImpairConfig
	for _, loss := range []float64{0, 2, 20} {
		for _, corr := range []float64{0, 25} {
			genomes = append(genomes, ImpairConfig{LossPct: loss, LossCorrPct: corr})
		}
	}
	for _, gb := range []float64{0, 1, 20} {
		for _, bg := range []float64{0, 25, 100} {
			genomes = append(genomes, ImpairConfig{GEGoodBadPct: gb, GEBadGoodPct: bg})
		}
	}
	for _, p := range []float64{0.5, 5} {
		genomes = append(genomes, ImpairConfig{DupPct: p}, ImpairConfig{CorruptPct: p})
	}
	for _, pct := range []float64{0, 25, 100} {
		for _, us := range []int{0, 1, 100, 1000} {
			genomes = append(genomes, ImpairConfig{ReorderPct: pct, ReorderUs: us})
		}
	}
	accepted, impaired := 0, 0
	for i := range genomes {
		sc := base
		sc.Impair = &genomes[i]
		if sc.Validate() != nil {
			continue
		}
		accepted++
		got, want := sc.Impaired(), sc.Impair.spec(sc.Seed) != nil
		if got != want {
			t.Errorf("%+v: Impaired() = %v, spec renders a pipeline = %v", genomes[i], got, want)
		}
		if got {
			impaired++
		}
	}
	if accepted == impaired || impaired == 0 {
		t.Fatalf("grid not mixed: %d accepted, %d impaired", accepted, impaired)
	}
}

// TestImpairGeneratorValid: every generated impaired scenario passes
// Validate and actually carries an active pipeline; Weaken runs never
// roll one spontaneously (the sabotage self-test must stay noise-free).
func TestImpairGeneratorValid(t *testing.T) {
	rng := sim.NewRNG(17)
	impaired := 0
	for i := 0; i < 300; i++ {
		sc := Generate(rng, Options{Impair: true})
		if err := sc.Validate(); err != nil {
			t.Fatalf("impaired scenario %d invalid: %v\n%+v", i, err, sc)
		}
		if !sc.Impaired() {
			t.Fatalf("impaired scenario %d carries no active pipeline: %+v", i, sc.Impair)
		}
	}
	for i := 0; i < 300; i++ {
		sc := Generate(rng, Options{})
		if err := sc.Validate(); err != nil {
			t.Fatalf("scenario %d invalid: %v", i, err)
		}
		if sc.Impaired() {
			impaired++
		}
	}
	if impaired == 0 {
		t.Error("default options never rolled an impairment pipeline")
	}
	for i := 0; i < 100; i++ {
		if sc := Generate(rng, Options{Weaken: true}); sc.Impair != nil {
			t.Fatalf("weaken scenario %d rolled an impairment pipeline: %+v", i, sc.Impair)
		}
	}
}

// TestImpairShrinkDropsPipeline: when the violation is the weakened
// majority, not the noise, the shrinker must strip the impairment
// pipeline from the counterexample.
func TestImpairShrinkDropsPipeline(t *testing.T) {
	sc := Scenario{
		Seed: 13, Topology: TopoTestbed, K: 3, TrunkMbps: 1000,
		Flows:          []Flow{{Kind: FlowUDP, RateMbps: 10, PayloadSize: 256}},
		Adversaries:    []Adversary{{Router: 0, Chain: []Atom{{Kind: AtomModify, Rewrite: "tos"}}}},
		WeakenMajority: true,
		Impair:         &ImpairConfig{DupPct: 1, ReorderPct: 25, ReorderUs: 100},
	}
	res, err := Check(sc)
	if err != nil {
		t.Fatal(err)
	}
	hasForgery := false
	for _, o := range res.Oracles() {
		if o == OracleNoForgery {
			hasForgery = true
		}
	}
	if !hasForgery {
		t.Fatalf("weakened impaired scenario did not trip no-forgery: %+v", res.Violations)
	}
	min := Shrink(sc, []string{OracleNoForgery}, 60)
	if min.Impair != nil {
		t.Errorf("shrinker kept the impairment pipeline: %+v", min.Impair)
	}
}
