package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netco/internal/harness"
)

// TestRunCleanBatch checks a small honest fuzz batch: exit 0, correct
// summary JSON shape, scenario count honored.
func TestRunCleanBatch(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "summary.json")
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-n", "6", "-seed", "7", "-workers", "2", "-json", jsonPath,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fuzz: 6 scenarios, 0 violations") {
		t.Errorf("unexpected console output:\n%s", buf.String())
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var sum summary
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatalf("summary is not valid JSON: %v", err)
	}
	if sum.Scenarios != 6 || sum.Violations != 0 || sum.Seed != 7 {
		t.Fatalf("bad summary: %+v", sum)
	}
}

// TestRunExpectCatch drives the sabotage self-test: with -weaken the
// no-forgery oracle must fire, minimized artifacts must land in the
// artifact directory, and -expect-catch must turn that into success.
func TestRunExpectCatch(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-n", "4", "-seed", "42", "-workers", "2", "-weaken", "-expect-catch", "-artifacts", dir,
	}, &buf)
	if err != nil {
		t.Fatalf("expect-catch failed: %v\n%s", err, buf.String())
	}
	arts, err := filepath.Glob(filepath.Join(dir, "ce-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) == 0 {
		t.Fatal("no minimized artifacts written")
	}
	art, err := harness.ReadArtifact(arts[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Scenario.Flows) > 5 || len(art.Scenario.Adversaries) > 2 {
		t.Errorf("artifact not minimized: %d flows, %d adversaries",
			len(art.Scenario.Flows), len(art.Scenario.Adversaries))
	}
	found := false
	for _, o := range art.Expect {
		if o == harness.OracleNoForgery {
			found = true
		}
	}
	if !found {
		t.Errorf("artifact does not expect no-forgery: %v", art.Expect)
	}
}

// TestRunExpectCatchFailsWhenClean inverts the self-test: an honest run
// with -expect-catch must fail, proving the flag is not a no-op.
func TestRunExpectCatchFailsWhenClean(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-n", "2", "-seed", "7", "-expect-catch"}, &buf)
	if err == nil {
		t.Fatal("expect-catch succeeded without any violation")
	}
}

// TestRunHelp: -h prints the usage and succeeds without checking a
// scenario.
func TestRunHelp(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-h"}, &buf); err != nil {
		t.Fatalf("-h: %v", err)
	}
	for _, want := range []string{"Usage of netco-fuzz:", "\n  -n int", "\n  -weaken"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("-h output lacks %q:\n%s", want, buf.String())
		}
	}
}

// TestRunFlagErrors checks argument validation.
func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "0"},
		{"-no-such-flag"},
		// A stray positional used to be ignored along with every flag
		// after it: this ran the default 200 scenarios.
		{"extra", "-n", "1"},
	} {
		var buf bytes.Buffer
		if err := run(context.Background(), args, &buf); err == nil {
			t.Errorf("args %v accepted, want error", args)
		}
	}
}
