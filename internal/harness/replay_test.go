package harness

import (
	"bytes"
	"context"
	"flag"
	"path/filepath"
	"testing"

	"netco/internal/pool"
)

// -harness.replay replays one artifact file instead of the checked-in
// corpus:
//
//	go test ./internal/harness/ -run TestHarnessReplay -harness.replay=path/to/counterexample.json
var replayFile = flag.String("harness.replay", "", "replay a single harness artifact instead of testdata/")

// TestHarnessReplay re-executes counterexample artifacts and asserts the
// recorded oracle violations reproduce exactly. Without -harness.replay
// it walks every artifact in testdata/, making each checked-in
// counterexample a permanent regression test.
func TestHarnessReplay(t *testing.T) {
	paths := []string{*replayFile}
	if *replayFile == "" {
		var err error
		paths, err = filepath.Glob("testdata/*.json")
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) == 0 {
			t.Fatal("no artifacts in testdata/")
		}
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			art, err := ReadArtifact(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Check(art.Scenario)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Oracles()
			if len(got) != len(art.Expect) {
				t.Fatalf("oracle set changed: got %v, artifact expects %v\nviolations: %+v",
					got, art.Expect, res.Violations)
			}
			for i := range got {
				if got[i] != art.Expect[i] {
					t.Fatalf("oracle set changed: got %v, artifact expects %v", got, art.Expect)
				}
			}
		})
	}
}

// TestReplayDeterministicAcrossWorkers executes every testdata artifact
// under worker counts 1 and 8 and requires byte-identical observations:
// scenario isolation means parallelism must never leak into results.
func TestReplayDeterministicAcrossWorkers(t *testing.T) {
	paths, err := filepath.Glob("testdata/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no artifacts in testdata/")
	}
	scenarios := make([]Scenario, len(paths))
	for i, p := range paths {
		art, err := ReadArtifact(p)
		if err != nil {
			t.Fatal(err)
		}
		scenarios[i] = art.Scenario
	}
	run := func(workers int) [][]byte {
		obs, errs := pool.Map(context.Background(), workers, len(scenarios), func(i int) ([]byte, error) {
			r, err := Execute(scenarios[i])
			if err != nil {
				return nil, err
			}
			return r.Obs.CanonicalJSON(), nil
		})
		for i, err := range errs {
			if err != nil {
				t.Fatalf("workers=%d scenario %s: %v", workers, paths[i], err)
			}
		}
		return obs
	}
	serial := run(1)
	parallel := run(8)
	for i := range serial {
		if !bytes.Equal(serial[i], parallel[i]) {
			t.Errorf("%s: observation differs between workers=1 and workers=8", paths[i])
		}
	}
}
