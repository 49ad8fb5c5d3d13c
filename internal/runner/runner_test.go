package runner

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"netco/internal/experiment"
	"netco/internal/metrics"
)

// sweepGrid is a small but real grid: two kinds, two scenarios, two
// seeds, with durations cut far below even Quick for test wall-time.
func sweepGrid() Grid {
	p := experiment.DefaultParams().Quick()
	p.PingCount = 5
	p.UDPDuration = 50 * time.Millisecond
	return Grid{
		Kinds:     []experiment.Kind{experiment.KindPing, experiment.KindUDP},
		Scenarios: []experiment.Scenario{experiment.ScenLinespeed, experiment.ScenCentral3},
		Seeds:     []int64{1, 2},
		Variants:  []Variant{{Params: p}},
	}
}

func mustJobs(t *testing.T, g Grid) []Job {
	t.Helper()
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// A row defined on Central3 only, crossed with {Linespeed, Central3},
// runs once per seed beside a row defined anywhere; a grid left with no
// run says which kind emptied it.
func TestGridSkipsScenariosARowIsNotDefinedOn(t *testing.T) {
	g := sweepGrid()
	g.Kinds = []experiment.Kind{experiment.KindPing, experiment.KindHybrid}
	var got []string
	for _, j := range mustJobs(t, g) {
		got = append(got, fmt.Sprintf("%s#%d", j.Group(), j.Seed))
	}
	want := "ping/Linespeed#1 ping/Linespeed#2 ping/Central3#1 ping/Central3#2 hybrid/Central3#1 hybrid/Central3#2"
	if strings.Join(got, " ") != want {
		t.Fatalf("jobs = %v\nwant   %s", got, want)
	}

	g.Kinds = []experiment.Kind{experiment.KindHybrid}
	g.Scenarios = []experiment.Scenario{experiment.ScenLinespeed}
	if _, err := g.Jobs(); err == nil || !strings.Contains(err.Error(), "hybrid is defined on [Central3] only") {
		t.Fatalf("all-skipped grid: err = %v, want the kind and its scenarios named", err)
	}
}

// Merged summaries equal the single-threaded fold of the same runs.
func TestSweepMergeMatchesSingleThreadedFold(t *testing.T) {
	jobs := mustJobs(t, sweepGrid())
	rep := Sweep(context.Background(), 4, jobs)

	want := make(map[string]metrics.Summary)
	for _, rec := range rep.Runs {
		if rec.Result == nil {
			t.Fatalf("run %s seed %d failed: %s", rec.Group, rec.Seed, rec.Err)
		}
		for _, name := range sortedKeys(rec.Result.Summaries) {
			key := rec.Group + "." + name
			m := want[key]
			m.Merge(rec.Result.Summaries[name])
			want[key] = m
		}
	}
	if len(rep.Merged) == 0 {
		t.Fatal("no merged summaries")
	}
	for key, w := range want {
		g, ok := rep.Merged[key]
		if !ok {
			t.Fatalf("merged missing %q", key)
		}
		if g.N() != w.N() || math.Abs(g.Mean()-w.Mean()) > 1e-12 || g.Min() != w.Min() || g.Max() != w.Max() {
			t.Fatalf("merged[%q] = %+v, want %+v", key, g, w)
		}
	}
	// Every ping group merged two seeds' samples.
	if s := rep.Merged["ping/Linespeed.rtt_avg_ms"]; s.N() != 2 {
		t.Fatalf("ping/Linespeed.rtt_avg_ms N = %d, want 2", s.N())
	}
}

// Hybrid runs attach histogram sketches; the report folds them per
// group exactly (integer bucket counts) and the artifact stays
// byte-identical across worker counts.
func TestSweepMergesHybridHists(t *testing.T) {
	p := experiment.DefaultParams().Quick()
	p.UDPDuration = 60 * time.Millisecond
	jobs := mustJobs(t, Grid{
		Kinds:     []experiment.Kind{experiment.KindHybrid},
		Scenarios: []experiment.Scenario{experiment.ScenCentral3},
		Seeds:     []int64{1, 2},
		Variants:  []Variant{{Params: p}},
	})

	serial := Sweep(context.Background(), 1, jobs)
	parallel := Sweep(context.Background(), 2, jobs)
	var a, b bytes.Buffer
	if err := serial.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("hybrid artifacts differ across worker counts")
	}

	if serial.Failed != 0 {
		t.Fatalf("%d runs failed", serial.Failed)
	}
	want := make(map[string]metrics.Hist)
	for _, rec := range serial.Runs {
		for _, name := range sortedKeys(rec.Result.Hists) {
			key := rec.Group + "." + name
			m := want[key]
			m.Merge(rec.Result.Hists[name])
			want[key] = m
		}
	}
	if len(want) == 0 || len(serial.MergedHists) != len(want) {
		t.Fatalf("merged hists: got %d keys, want %d", len(serial.MergedHists), len(want))
	}
	for key, w := range want {
		g, ok := serial.MergedHists[key]
		if !ok || g.N() != w.N() || g.Min() != w.Min() || g.Max() != w.Max() {
			t.Fatalf("merged hist %q diverged from single-threaded fold (ok=%v)", key, ok)
		}
	}
	if h := serial.MergedHists["hybrid/Central3.flow_rate_mbps"]; h.N() == 0 {
		t.Fatal("flow_rate_mbps sketch empty after merge")
	}
}

// A run that panics (unknown kind) fails its record deterministically
// and leaves the rest of the sweep intact.
func TestSweepRecordsPanicsAsFailedRuns(t *testing.T) {
	p := experiment.DefaultParams().Quick()
	p.PingCount = 5
	jobs := []Job{
		{Kind: experiment.KindPing, Scenario: experiment.ScenLinespeed, Params: p, Seed: 1},
		{Kind: experiment.Kind(99), Scenario: experiment.ScenLinespeed, Params: p, Seed: 1},
	}
	rep := Sweep(context.Background(), 2, jobs)
	if rep.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", rep.Failed)
	}
	if rep.Runs[0].Result == nil || rep.Runs[0].Err != "" {
		t.Fatalf("healthy run affected: %+v", rep.Runs[0])
	}
	if rep.Runs[1].Result != nil || rep.Runs[1].Err != "panic: experiment: unknown Kind 99" {
		t.Fatalf("failed run record = %+v", rep.Runs[1])
	}
}
