package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The full command: every workload, nine plain repetitions and one
// traced one, each in a fresh child process, strictly one at a time and
// round-robin across workloads so machine drift lands on all of them.

const (
	plainReps    = 9
	childTimeout = 180 * time.Second
	outDir       = "bench/out"
)

// summary is one end-to-end metric over a workload's plain repetitions.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// quartiles matches Python's statistics.quantiles(v, n=4), the rule the
// driver applies to its own runs.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		delta := i*(m+1) - j*4
		j = min(max(j, 1), m-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func summarize(v []float64) summary {
	q1, q2, q3 := quartiles(v)
	lo := math.Inf(1)
	for _, x := range v {
		lo = math.Min(lo, x)
	}
	return summary{Median: q2, Min: lo, Q1: q1, Q3: q3, N: len(v)}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 { return (s.Q3 - s.Q1) / s.Median }

// runChild runs one repetition in a fresh process and parses its last
// two lines.
func runChild(exe, workload string, seed int64, seconds float64, traced bool) (runResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return runResult{}, fmt.Errorf("%s: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res runResult
	if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], detailPrefix) {
		return res, fmt.Errorf("%s: child printed no detail line", workload)
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], detailPrefix)), &res.detail); err != nil {
		return res, fmt.Errorf("%s: detail line: %w", workload, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res.line); err != nil {
		return res, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return res, nil
}

// setResult is one complete set of runs.
type setResult struct {
	Provenance provenance                    `json:"provenance"`
	RunSeconds float64                       `json:"run_seconds"`
	Seed       int64                         `json:"seed"`
	Attempted  int                           `json:"attempted"`
	Failed     int                           `json:"failed"`
	Failures   []string                      `json:"failures,omitempty"`
	Digests    map[string]string             `json:"digests"`
	EndToEnd   map[string]map[string]summary `json:"end_to_end"` // workload -> metric
	PerLayer   map[string]map[string]float64 `json:"per_layer"`  // workload -> metric
	counts     map[string]map[string]float64
}

func (s *setResult) failedFrac() float64 { return float64(s.Failed) / float64(s.Attempted) }

// runSet runs the full set once and prints it.
func runSet(w io.Writer, exe string, seed int64, seconds float64) *setResult {
	set := &setResult{
		RunSeconds: seconds, Seed: seed, Provenance: readProvenance(),
		Digests:  map[string]string{},
		EndToEnd: map[string]map[string]summary{},
		PerLayer: map[string]map[string]float64{},
		counts:   map[string]map[string]float64{},
	}
	fail := func(format string, a ...any) {
		set.Failed++
		set.Failures = append(set.Failures, fmt.Sprintf(format, a...))
	}
	samples := map[string]map[string][]float64{}
	one := func(wl workloadSpec, rep int, traced bool) {
		set.Attempted++
		res, err := runChild(exe, wl.Name, seed, seconds, traced)
		switch {
		case err != nil:
			fail("rep %d: %v", rep, err)
			return
		case !res.line.Correct:
			fail("rep %d %s: %s", rep, wl.Name, strings.Join(res.detail.Errors, "; "))
			return
		}
		if want, ok := set.Digests[wl.Name]; !ok {
			set.Digests[wl.Name] = res.detail.Digest
			set.counts[wl.Name] = res.detail.Counts
		} else if want != res.detail.Digest {
			fail("rep %d %s: digest %s differs from earlier repetitions' %s", rep, wl.Name, res.detail.Digest, want)
			return
		}
		if traced {
			pl := map[string]float64{}
			for name, m := range res.line.Metrics {
				pl[name] = m.Value
			}
			set.PerLayer[wl.Name] = pl
			return
		}
		if samples[wl.Name] == nil {
			samples[wl.Name] = map[string][]float64{}
		}
		for name, m := range res.line.Metrics {
			samples[wl.Name][name] = append(samples[wl.Name][name], m.Value)
		}
	}
	for rep := 1; rep <= plainReps; rep++ {
		for _, wl := range workloadSpecs {
			one(wl, rep, false)
		}
		fmt.Fprintf(w, "repetition %d of %d done\n", rep, plainReps)
	}
	for _, wl := range workloadSpecs {
		one(wl, plainReps+1, true)
	}
	if a, b := set.Digests["fattree_udp"], set.Digests["fattree_udp_par2"]; a != b {
		fail("fattree_udp_par2 digest %s differs from fattree_udp's %s", b, a)
	}

	p := set.Provenance
	fmt.Fprintf(w, "\nmachine: nproc=%d GOMAXPROCS=%d %s kernel %s; seed %d, %g s per run, %d plain + 1 traced repetitions\n",
		p.NProc, p.GOMAXPROCS, p.GoVersion, p.Kernel, seed, seconds, plainReps)
	for _, wl := range workloadSpecs {
		fmt.Fprintf(w, "\n== %s  digest %s\n", wl.Name, set.Digests[wl.Name])
		set.EndToEnd[wl.Name] = map[string]summary{}
		for _, m := range e2eMetrics {
			v := samples[wl.Name][m.Name]
			if len(v) == 0 {
				continue
			}
			s := summarize(v)
			set.EndToEnd[wl.Name][m.Name] = s
			fmt.Fprintf(w, "  %-40s %12.5g %-7s median of %d (min %.5g, q1 %.5g, q3 %.5g, spread %.1f%%, bound %.0f%%)\n",
				m.Name, s.Median, m.Unit, s.N, s.Min, s.Q1, s.Q3, 100*s.spread(), 100*m.Bound)
		}
		for _, m := range layerMetrics {
			if pl, ok := set.PerLayer[wl.Name]; ok {
				fmt.Fprintf(w, "  %-40s %12.5g %s\n", m.Name, pl[m.Name], m.Unit)
			}
		}
	}
	serial, par := set.EndToEnd["fattree_udp"][wallM], set.EndToEnd["fattree_udp_par2"][wallM]
	if par.Median > 0 {
		fmt.Fprintf(w, "\nfattree_udp / fattree_udp_par2 median wall across processes: %.3fx\n", serial.Median/par.Median)
	}
	fmt.Fprintf(w, "failed_frac %g (%d of %d repetitions)\n", set.failedFrac(), set.Failed, set.Attempted)
	for _, f := range set.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
	return set
}

// noiseRow is one (workload, metric) comparison between two sets of the
// same binary.
type noiseRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	RelDiff  float64 `json:"rel_diff"`
	SpreadA  float64 `json:"spread_a"`
	SpreadB  float64 `json:"spread_b"`
	Bound    float64 `json:"bound"`
	Breach   bool    `json:"breach"`
}

// compareSets is the A/A check: two sets of the same binary must agree
// within each metric's bound, keep their spread within it (set-up time
// excepted, as in the driver), and repeat every count and digest.
func compareSets(w io.Writer, a, b *setResult) (rows []noiseRow, breach bool) {
	fmt.Fprintf(w, "\n== A/A: second set against first\n")
	for _, wl := range workloadSpecs {
		for _, m := range e2eMetrics {
			sa, sb := a.EndToEnd[wl.Name][m.Name], b.EndToEnd[wl.Name][m.Name]
			row := noiseRow{Workload: wl.Name, Metric: m.Name, A: sa.Median, B: sb.Median,
				RelDiff: (sb.Median - sa.Median) / sa.Median, SpreadA: sa.spread(), SpreadB: sb.spread(), Bound: m.Bound}
			row.Breach = math.Abs(row.RelDiff) > m.Bound || sa.N == 0 || sb.N == 0 ||
				(m.Name != setupM && math.Max(row.SpreadA, row.SpreadB) > m.Bound)
			breach = breach || row.Breach
			rows = append(rows, row)
			fmt.Fprintf(w, "  %-18s %-18s %10.5g -> %10.5g  %+6.1f%%  spread %.1f%% / %.1f%%  bound %.0f%%  %s\n",
				wl.Name, m.Name, row.A, row.B, 100*row.RelDiff, 100*row.SpreadA, 100*row.SpreadB, 100*m.Bound,
				map[bool]string{false: "ok", true: "BREACH"}[row.Breach])
		}
		if a.Digests[wl.Name] != b.Digests[wl.Name] {
			fmt.Fprintf(w, "  %-18s digest %s -> %s  BREACH\n", wl.Name, a.Digests[wl.Name], b.Digests[wl.Name])
			breach = true
		}
		for name, va := range a.counts[wl.Name] {
			if vb := b.counts[wl.Name][name]; va != vb {
				fmt.Fprintf(w, "  %-18s count %s %g -> %g  BREACH\n", wl.Name, name, va, vb)
				breach = true
			}
		}
	}
	if a.Failed+b.Failed > 0 {
		breach = true
	}
	return rows, breach
}

// digestsFor runs one round of every workload in this process and
// returns the digests: the simulated outputs need no fresh process.
func digestsFor(seed int64) map[string]string {
	out := map[string]string{}
	for i := range workloads {
		r := workloads[i].run(roundCfg{seed: seed, rec: newSpanRecorder()})
		out[workloads[i].name] = digestHash(r.digest)
	}
	return out
}

// expect prints traffic.sim_out_changed per workload against a stored
// baseline and reports whether anything changed.
func expect(w io.Writer, path string, seed int64) (changed bool, err error) {
	bf, err := readBaseline(path)
	if err != nil {
		return false, err
	}
	got := digestsFor(seed)
	for _, wl := range workloadSpecs {
		want, ok := bf.Digests[wl.Name][strconv.FormatInt(seed, 10)]
		v := 0
		switch {
		case !ok:
			v = -1
		case want != got[wl.Name]:
			v, changed = 1, true
		}
		fmt.Fprintf(w, "traffic.sim_out_changed %-18s %2d  (stored %s, now %s)\n", wl.Name, v, want, got[wl.Name])
	}
	return changed, nil
}

// baselineSeeds are the seeds whose digests the baseline stores, so
// traffic.sim_out_changed means something on more than the default.
const baselineSeeds = 10

// writeBaseline stores a set as the committed baseline and regenerates
// BENCHMARK.json from the tables.
func writeBaseline(set *setResult, noise []noiseRow) error {
	bf := baselineFile{
		Note: "Baseline measured by `go run ./bench -update` on the machine below. BENCHMARK.json may hold only the keys " +
			"the driver reads, so measured values, digests, noise and coverage live here. No gain is claimed.",
		NotCovered: notCovered,
		Provenance: set.Provenance,
		RunSeconds: set.RunSeconds,
		Seed:       set.Seed,
		Digests:    map[string]map[string]string{},
		EndToEnd:   set.EndToEnd,
		PerLayer:   set.PerLayer,
		Moves:      map[string]movesEntry{},
		Noise:      noise,
	}
	for _, m := range layerMetrics {
		bf.Moves[m.Name] = movesEntry{m.Moves, m.On}
	}
	for seed := int64(1); seed <= baselineSeeds; seed++ {
		for name, d := range digestsFor(seed) {
			if bf.Digests[name] == nil {
				bf.Digests[name] = map[string]string{}
			}
			bf.Digests[name][strconv.FormatInt(seed, 10)] = d
		}
	}
	if err := os.WriteFile(filepath.FromSlash(baselinePath), marshalIndented(bf), 0o644); err != nil {
		return err
	}
	return os.WriteFile("BENCHMARK.json", marshalIndented(benchmarkSpec()), 0o644)
}

// writeResult stores the last set under bench/out for later reading.
func writeResult(set *setResult) error {
	if err := os.MkdirAll(filepath.FromSlash(outDir), 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(filepath.FromSlash(outDir), "result.json"), marshalIndented(set), 0o644)
}
