package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"path/filepath"
	"testing"
	"time"

	"netco/internal/sim"
)

// TestHonestBaselines runs an adversary-free scenario on each topology
// and checks traffic actually crosses the combiner(s) without tripping
// any oracle.
func TestHonestBaselines(t *testing.T) {
	for _, topo := range []string{TopoTestbed, TopoFatTree, TopoChain} {
		for _, k := range []int{2, 3} {
			topo, k := topo, k
			t.Run(topo+"/k="+itoa(k), func(t *testing.T) {
				t.Parallel()
				sc := Scenario{
					Seed:      1,
					Topology:  topo,
					K:         k,
					TrunkMbps: 1000,
					Flows: []Flow{
						{Kind: FlowPing, Count: 5},
						{Kind: FlowUDP, RateMbps: 10, PayloadSize: 256, Reverse: true},
						{Kind: FlowTCP, KiB: 32},
					},
				}
				res, err := Check(sc)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Violations) != 0 {
					t.Fatalf("honest run violated oracles: %+v", res.Violations)
				}
				for i, fo := range res.Obs.Flows {
					if fo.Received == 0 {
						t.Errorf("flow %d (%s) delivered nothing: %+v", i, fo.Kind, fo)
					}
					if fo.Kind == FlowTCP && !fo.Done {
						t.Errorf("flow %d tcp did not quiesce: %+v", i, fo)
					}
				}
				if len(res.Obs.Alarms) != 0 {
					t.Errorf("honest run raised alarms: %+v", res.Obs.Alarms)
				}
			})
		}
	}
}

// TestTraceDigestCoversRouterTraffic: each combiner's trace digest hashes
// what its router 0 transmitted, so a run with traffic does not digest
// the empty input, and a change to one flow's rate reaches the digest.
func TestTraceDigestCoversRouterTraffic(t *testing.T) {
	empty := sha256.Sum256(nil)
	digests := func(rate float64) []string {
		sc := Scenario{
			Seed: 1, Topology: TopoChain, K: 3, TrunkMbps: 1000,
			Flows: []Flow{
				{Kind: FlowPing, Count: 3},
				{Kind: FlowUDP, RateMbps: rate, PayloadSize: 256},
			},
		}
		res, err := Execute(sc)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Obs.TraceDigests) != sc.Combiners() {
			t.Fatalf("%d trace digests for %d combiners", len(res.Obs.TraceDigests), sc.Combiners())
		}
		for ci, d := range res.Obs.TraceDigests {
			if d == hex.EncodeToString(empty[:]) {
				t.Errorf("rate %g: combiner %d trace digest hashes nothing", rate, ci)
			}
		}
		return res.Obs.TraceDigests
	}
	slow, fast := digests(5), digests(10)
	for ci := range slow {
		if slow[ci] == fast[ci] {
			t.Errorf("combiner %d: trace digest unmoved by the UDP rate", ci)
		}
	}
}

// TestWeakenedMajorityCaughtAndShrinks is the acceptance drill for the
// sabotage hook: a deliberately weakened compare (release threshold one
// below a strict majority) must be caught by the no-forgery oracle, and
// the shrunk counterexample must be small.
func TestWeakenedMajorityCaughtAndShrinks(t *testing.T) {
	rng := sim.NewRNG(42)
	var sc Scenario
	var oracles []string
	found := false
	for i := 0; i < 20 && !found; i++ {
		cand := Generate(rng, Options{Weaken: true})
		res, err := Check(cand)
		if err != nil {
			t.Fatalf("generated invalid scenario: %v", err)
		}
		for _, o := range res.Oracles() {
			if o == OracleNoForgery {
				sc, oracles, found = cand, res.Oracles(), true
			}
		}
	}
	if !found {
		t.Fatal("weakened-majority generator never tripped the no-forgery oracle")
	}

	min := Shrink(sc, []string{OracleNoForgery}, 60)
	if len(min.Flows) > 5 {
		t.Errorf("shrunk scenario keeps %d flows, want <= 5", len(min.Flows))
	}
	if len(min.Adversaries) > 2 {
		t.Errorf("shrunk scenario keeps %d adversaries, want <= 2", len(min.Adversaries))
	}
	res, err := Check(min)
	if err != nil {
		t.Fatal(err)
	}
	still := false
	for _, o := range res.Oracles() {
		if o == OracleNoForgery {
			still = true
		}
	}
	if !still {
		t.Fatalf("shrunk scenario no longer violates no-forgery: %+v", res.Violations)
	}

	// Round-trip the artifact.
	path := filepath.Join(t.TempDir(), "weakened.json")
	if err := WriteArtifact(path, Artifact{Scenario: min, Expect: oracles, Note: "test"}); err != nil {
		t.Fatal(err)
	}
	back, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Scenario.Seed != min.Seed || len(back.Expect) != len(oracles) {
		t.Fatalf("artifact round-trip mismatch: %+v", back)
	}
}

// TestGenerateDeterministic pins the generator: same RNG seed, same
// scenario stream.
func TestGenerateDeterministic(t *testing.T) {
	a := Generate(sim.NewRNG(7), Options{})
	b := Generate(sim.NewRNG(7), Options{})
	aj, bj := mustJSON(t, a), mustJSON(t, b)
	if aj != bj {
		t.Fatalf("generator not deterministic:\n%s\n%s", aj, bj)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestGeneratedScenariosValid fuzz-lite: every generated scenario must
// pass Validate.
func TestGeneratedScenariosValid(t *testing.T) {
	rng := sim.NewRNG(99)
	for i := 0; i < 500; i++ {
		sc := Generate(rng, Options{})
		if err := sc.Validate(); err != nil {
			t.Fatalf("scenario %d invalid: %v\n%+v", i, err, sc)
		}
	}
	for i := 0; i < 100; i++ {
		sc := Generate(rng, Options{Weaken: true})
		if err := sc.Validate(); err != nil {
			t.Fatalf("weakened scenario %d invalid: %v", i, err)
		}
		if !sc.WeakenMajority || sc.K != 3 {
			t.Fatalf("weakened scenario %d lacks the hook: %+v", i, sc)
		}
	}
}

// TestCheckWallClock keeps one Check cheap enough that the 30-second
// smoke budget holds 200 scenarios.
func TestCheckWallClock(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	sc := Generate(sim.NewRNG(3), Options{})
	start := time.Now()
	if _, err := Check(sc); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("one Check took %v; smoke budget assumes well under 2s on average", d)
	}
}

func itoa(n int) string { return string(rune('0' + n)) }

func mustJSON(t *testing.T, v interface{}) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
