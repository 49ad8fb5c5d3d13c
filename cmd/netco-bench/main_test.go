package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestRunFig7JSON drives one quick figure through the CLI and pins the
// -json report's metric key set: the BENCH_*.json snapshots and anything
// diffing them depend on these names.
func TestRunFig7JSON(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "bench.json")
	var buf bytes.Buffer
	if err := run([]string{"-fig7", "-quick", "-json", jsonPath}, &buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	for _, want := range []string{"== Fig. 7: ping round-trip time ==", "classifier: "} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("console output lacks %q:\n%s", want, buf.String())
		}
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Seed    int64              `json:"seed"`
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if report.Seed != 1 {
		t.Errorf("seed = %d, want the default 1", report.Seed)
	}
	var got []string
	for k := range report.Metrics {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{
		"classifier.lookups",
		"classifier.mask_probes",
		"classifier.masks",
		"classifier.misses",
		"events_per_sec",
		"fig7.Central3.rtt_ms",
		"fig7.Central5.rtt_ms",
		"fig7.Dup3.rtt_ms",
		"fig7.Dup5.rtt_ms",
		"fig7.Linespeed.rtt_ms",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("metric keys:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
	if report.Metrics["classifier.lookups"] == 0 || report.Metrics["classifier.misses"] != 0 {
		t.Errorf("classifier counters %v: the soak's proactive rules must serve every lookup", report.Metrics)
	}
}

// TestRunRejectsUnknownFlag: flag errors come back as errors, not os.Exit.
func TestRunRejectsUnknownFlag(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestRunScaleJSON pins the -scale report: every row times build and run
// apart, and every partitioned row carries the engine's own counters —
// which go to the console and the -json keys only, never to a digest.
func TestRunScaleJSON(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "scale.json")
	var buf bytes.Buffer
	if err := run([]string{"-scale", "-quick", "-json", jsonPath}, &buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	for _, want := range []string{"8-ary fat tree", " epochs, ", "% inline", "digests bit-identical"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("console output lacks %q:\n%s", want, buf.String())
		}
	}
	if strings.Contains(buf.String(), "16-ary") {
		t.Error("the arity-16 pass ran without -full")
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	m := report.Metrics
	for _, k := range []string{"build_s", "run_s", "events_per_sec", "speedup"} {
		for _, row := range []string{"scale.partitions1.", "scale.partitions12."} {
			if _, ok := m[row+k]; !ok {
				t.Errorf("report lacks %s%s", row, k)
			}
		}
	}
	for _, k := range []string{"epochs", "inline_frac", "handoffs", "imbalance"} {
		if _, ok := m["scale.partitions2."+k]; !ok {
			t.Errorf("report lacks scale.partitions2.%s", k)
		}
		if _, ok := m["scale.partitions1."+k]; ok {
			t.Errorf("serial row reports scale.partitions1.%s: it has no engine", k)
		}
	}
	if f := m["scale.partitions2.inline_frac"]; f < 0 || f > 1 {
		t.Errorf("inline_frac %v outside [0,1]", f)
	}
	if m["scale.partitions2.epochs"] == 0 || m["scale.partitions2.handoffs"] == 0 || m["scale.partitions2.imbalance"] < 1 {
		t.Errorf("engine counters look unset: %v", m)
	}
}
