package harness

import (
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"netco/internal/sim"
)

// fuzzSeed hashes a fuzz input into a generator seed. It is FNV-1a from the
// standard library and nothing of the simulator's own, because the
// committed corpus means what this function says it means: change the hash
// and every crasher under testdata/fuzz replays a different scenario.
func fuzzSeed(data []byte) int64 {
	h := fnv.New64a()
	h.Write(data)
	return int64(h.Sum64() >> 1)
}

// TestFuzzSeedPinned holds fuzzSeed to the values it gave when the corpus
// was recorded (then through packet.FastKey, at the time FNV-1a too).
func TestFuzzSeedPinned(t *testing.T) {
	for in, want := range map[string]int64{
		"netco": 6814885284014436341,
		"nAtb|": 9166117192476945441, // testdata/fuzz/FuzzScenario/1b5e300bb4caf9bb
	} {
		if got := fuzzSeed([]byte(in)); got != want {
			t.Errorf("fuzzSeed(%q) = %d, want %d: the fuzz corpus no longer replays what it recorded", in, got, want)
		}
	}
}

// FuzzScenario is the native fuzz entry point: the fuzz input is hashed
// into a generator seed, the derived scenario is executed, and every
// oracle is enforced. On violation the scenario is shrunk and written
// next to the fuzzer's own crash record so it can be checked into
// testdata/ as a replayable regression.
func FuzzScenario(f *testing.F) {
	f.Add([]byte("netco"))
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := Generate(sim.NewRNG(fuzzSeed(data)), Options{})
		res, err := Check(sc)
		if err != nil {
			t.Fatalf("generated scenario rejected: %v", err)
		}
		if len(res.Violations) == 0 {
			return
		}
		oracles := res.Oracles()
		min := Shrink(sc, oracles, 120)
		path := filepath.Join(t.TempDir(), "counterexample.json")
		if dir := os.Getenv("NETCO_FUZZ_ARTIFACTS"); dir != "" {
			path = filepath.Join(dir, "counterexample.json")
		}
		if werr := WriteArtifact(path, Artifact{
			Scenario: min,
			Expect:   oracles,
			Note:     "FuzzScenario minimized counterexample",
		}); werr != nil {
			t.Logf("could not write artifact: %v", werr)
		}
		t.Fatalf("oracle violation %v (minimized artifact: %s)\nviolations: %+v", oracles, path, res.Violations)
	})
}
