package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is generated from the tables in spec.go; the committed
// file must be exactly that, with no key the driver does not read.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := benchmarkSpec(); !reflect.DeepEqual(got, want) {
		t.Fatal("BENCHMARK.json differs from the tables in spec.go; regenerate with `go run ./bench -update`")
	}
}

func TestTablesMeetTheContract(t *testing.T) {
	spec := benchmarkSpec()
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	workloadNames := map[string]bool{"none": true}
	for i, w := range spec.Workloads {
		name(w.Name)
		workloadNames[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if workloads[i].name != w.Name {
			t.Errorf("workload %d is %q in the spec but %q in the runner", i, w.Name, workloads[i].name)
		}
	}
	e2eNames := map[string]bool{"none": true}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		name(m.Name)
		e2eNames[m.Name] = true
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v out of contract", m)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
			for _, o := range spec.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %g", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	// Every per-layer metric says which end-to-end metric it should move
	// and on which workloads, or "none".
	for _, m := range layerMetrics {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v out of contract", m)
		}
		if !e2eNames[m.Moves] {
			t.Errorf("%s moves %q, which is no end-to-end metric", m.Name, m.Moves)
		}
		if (m.Moves == "none") != (m.On == "none") {
			t.Errorf("%s: moves %q on %q", m.Name, m.Moves, m.On)
		}
		for _, w := range strings.Split(m.On, ",") {
			if !workloadNames[w] {
				t.Errorf("%s names workload %q, which does not exist", m.Name, w)
			}
		}
	}
	for _, s := range spec.Command {
		if strings.HasPrefix(s, "/") || strings.Contains(s, "..") || len(s) > 200 {
			t.Errorf("command element %q out of contract", s)
		}
	}
}

// The set of metrics a run emits equals the set declared, and every
// declared per-layer metric is computed by some workload: one that
// silently stops being produced fails here instead of reading 0.
func TestRunsEmitExactlyTheDeclaredMetrics(t *testing.T) {
	keys := func(m map[string]metric) []string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	var wantLayer, wantE2E []string
	declared := map[string]bool{}
	for _, m := range layerMetrics {
		wantLayer = append(wantLayer, m.Name)
		declared[m.Name] = true
	}
	for _, m := range e2eMetrics {
		wantE2E = append(wantE2E, m.Name)
	}
	sort.Strings(wantLayer)
	sort.Strings(wantE2E)

	produced := map[string]bool{}
	for i := range workloads {
		w := &workloads[i]
		res := runWorkload(w, runOpts{seed: 1, traced: true, outDir: t.TempDir(), tiny: true})
		if !res.line.Correct || res.line.Failed != 0 || res.line.Attempted < 1 {
			t.Fatalf("%s: traced run failed: %v", w.name, res.detail.Errors)
		}
		if got := keys(res.line.Metrics); !reflect.DeepEqual(got, wantLayer) {
			t.Fatalf("%s: traced run emitted %v, declared %v", w.name, got, wantLayer)
		}
		for _, k := range res.produced {
			if !declared[k] {
				t.Errorf("%s computes %q, which is not declared", w.name, k)
			}
			produced[k] = true
		}
		for name, m := range res.line.Metrics {
			if m.Unit == "" {
				t.Errorf("%s: %s has no unit", w.name, name)
			}
		}
		var sum float64
		for name, m := range res.line.Metrics {
			if strings.HasSuffix(name, ".est_share") || name == "trace.unattributed_share" {
				sum += m.Value
			}
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: est_share values and trace.unattributed_share sum to %g, want 1", w.name, sum)
		}
		if _, err := os.Stat(res.traceFile); err != nil {
			t.Errorf("%s: traced run wrote no trace file: %v", w.name, err)
		}
	}
	for _, m := range layerMetrics {
		if !produced[m.Name] {
			t.Errorf("declared metric %s is computed by no workload", m.Name)
		}
	}

	res := runWorkload(&workloads[0], runOpts{seed: 1, tiny: true})
	if got := keys(res.line.Metrics); !reflect.DeepEqual(got, wantE2E) {
		t.Fatalf("plain run emitted %v, declared %v", got, wantE2E)
	}
	for name, m := range res.line.Metrics {
		if m.Value <= 0 {
			t.Errorf("end-to-end metric %s is %g; it must never be 0", name, m.Value)
		}
	}
}
