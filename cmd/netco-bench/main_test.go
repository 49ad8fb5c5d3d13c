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

// TestParallelMapReturnsFirstError: a scenario that panics fails the
// section; it used to print as a zero row (and Fig. 8 indexed its empty
// series).
func TestParallelMapReturnsFirstError(t *testing.T) {
	out, err := parallelMap(2, []string{"a", "b", "c"}, func(s string) int {
		if s != "a" {
			panic("boom " + s)
		}
		return 1
	})
	if err == nil || !strings.Contains(err.Error(), "b: panic: boom b") {
		t.Fatalf("parallelMap = %v, %v; want the first failing item's error", out, err)
	}
}
