// Package runner fans independent simulation runs out across a worker
// pool (internal/pool). The simulator itself is strictly single-threaded
// — schedulers, packet pools and compare engines all belong to one
// goroutine — so the unit of parallelism is a whole run: each worker
// builds its own testbed from scratch and nothing is shared between
// runs. Because every run is a pure function of its inputs and results
// are returned in input order, the output is bit-identical however many
// workers execute it.
package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"netco/internal/experiment"
	"netco/internal/metrics"
	"netco/internal/pool"
)

// Job is one schedulable experiment run: a pure (Kind, Params, Sizing,
// Scenario, seed) tuple. Variant optionally tags a parameter-grid point
// so runs of the same measurement at different calibrations merge into
// distinct groups.
type Job struct {
	Kind     experiment.Kind
	Scenario experiment.Scenario
	Params   experiment.Params
	Size     experiment.Sizing
	Seed     int64
	Variant  string
}

// Group keys the job for merging: runs with equal groups (same variant,
// kind and scenario, across seeds) aggregate into one merged summary.
func (j Job) Group() string {
	g := j.Kind.String() + "/" + j.Scenario.String()
	if j.Variant != "" {
		g = j.Variant + "/" + g
	}
	return g
}

// Variant is one point of a parameter grid.
type Variant struct {
	Name   string
	Params experiment.Params
	Size   experiment.Sizing
}

// Expand crosses the registry's axes into the base variant: values maps
// an axis's flag name to its spec (absent or "" = the axis's default). A
// grid axis fans every variant out to one copy per comma-separated
// value, tagged in its name; a scalar axis edits every variant in place.
// Axes cross in registry order, so -loss and -dup-pct together yield the
// full loss × dup surface under stable names.
func Expand(base Variant, values map[string]string) ([]Variant, error) {
	vs := []Variant{base}
	for _, ax := range experiment.Axes() {
		spec := values[ax.Flag]
		if spec == "" {
			spec = ax.Default
		}
		if spec == "" {
			continue
		}
		toks := strings.Split(spec, ",")
		if ax.Scalar {
			toks = []string{spec}
		}
		tags, edits := make([]string, len(toks)), make([]experiment.Edit, len(toks))
		for i, tok := range toks {
			var err error
			if tags[i], edits[i], err = ax.Parse(tok); err != nil {
				return nil, err
			}
			if slices.Contains(tags[:i], tags[i]) {
				return nil, fmt.Errorf("-%s gives %s twice: both runs would merge under one group name", ax.Flag, strings.TrimSpace(tok))
			}
		}
		out := make([]Variant, 0, len(vs)*len(toks))
		for _, v := range vs {
			for i, edit := range edits {
				v := v
				if !ax.Scalar {
					v.Name = strings.TrimPrefix(v.Name+"/"+tags[i], "/")
				}
				edit(&v.Params, &v.Size)
				out = append(out, v)
			}
		}
		vs = out
	}
	return vs, nil
}

// Grid is a sweep specification: the cross product of variants, kinds,
// scenarios and seeds, less the (kind, scenario) pairs a kind's registry
// row is not defined on.
type Grid struct {
	Kinds     []experiment.Kind
	Scenarios []experiment.Scenario
	Seeds     []int64
	Variants  []Variant
}

// Jobs expands the grid in deterministic order (variant, kind, scenario,
// seed — seeds innermost so one group's runs are contiguous). A grid
// that selects no run at all is an error saying which selection emptied
// it.
func (g Grid) Jobs() ([]Job, error) {
	var jobs []Job
	for _, v := range g.Variants {
		for _, k := range g.Kinds {
			on := k.Row().Scenarios
			for _, s := range g.Scenarios {
				if on != nil && !slices.Contains(on, s) {
					continue
				}
				for _, seed := range g.Seeds {
					jobs = append(jobs, Job{Kind: k, Scenario: s, Params: v.Params, Size: v.Size, Seed: seed, Variant: v.Name})
				}
			}
		}
	}
	if len(jobs) == 0 {
		why := fmt.Sprintf("%d kinds × %d scenarios × %d seeds × %d variants",
			len(g.Kinds), len(g.Scenarios), len(g.Seeds), len(g.Variants))
		for _, k := range g.Kinds {
			if on := k.Row().Scenarios; on != nil {
				why += fmt.Sprintf("; %v is defined on %v only", k, on)
			}
		}
		return nil, fmt.Errorf("runner: the grid selects no run: %s", why)
	}
	return jobs, nil
}

// RunRecord is one job's outcome in the report. Exactly one of Result
// and Err is set. Err is a short deterministic description (for panics,
// "panic: <value>" without the stack), so artifacts compare bytewise
// across reruns.
type RunRecord struct {
	Group  string             `json:"group"`
	Seed   int64              `json:"seed"`
	Result *experiment.Result `json:"result,omitempty"`
	Err    string             `json:"err,omitempty"`
}

// Report is a sweep's full outcome: every run in job order plus the
// per-group merged summaries and histogram sketches. It contains no
// wall-clock fields — the report for a given job list is byte-identical
// regardless of worker count, machine or run time.
type Report struct {
	Runs   []RunRecord                `json:"runs"`
	Merged map[string]metrics.Summary `json:"merged"`
	// MergedHists folds each run's histogram sketches per group (key
	// "<group>.<hist>"). Hist.Merge is exact (integer bucket counts),
	// so unlike Summary the fold order cannot even perturb float bits.
	MergedHists map[string]metrics.Hist `json:"merged_hists,omitempty"`
	Failed      int                     `json:"failed"`
}

// Sweep executes the jobs across the worker pool and assembles the
// report. Results appear in job order; summaries merge in job order
// (metric keyed "<group>.<summary>"), so the merged statistics equal the
// single-threaded fold exactly.
func Sweep(ctx context.Context, workers int, jobs []Job) Report {
	results, errs := pool.Map(ctx, workers, len(jobs), func(i int) (experiment.Result, error) {
		j := jobs[i]
		return experiment.Run(j.Kind, j.Params, j.Size, j.Scenario, j.Seed), nil
	})

	rep := Report{Runs: make([]RunRecord, len(jobs)), Merged: make(map[string]metrics.Summary)}
	for i, j := range jobs {
		rec := RunRecord{Group: j.Group(), Seed: j.Seed}
		if errs[i] != nil {
			rec.Err = errs[i].Error()
			rep.Failed++
		} else {
			r := results[i]
			rec.Result = &r
			for _, name := range sortedKeys(r.Summaries) {
				key := rec.Group + "." + name
				merged := rep.Merged[key]
				merged.Merge(r.Summaries[name])
				rep.Merged[key] = merged
			}
			for _, name := range sortedKeys(r.Hists) {
				if rep.MergedHists == nil {
					rep.MergedHists = make(map[string]metrics.Hist)
				}
				key := rec.Group + "." + name
				merged := rep.MergedHists[key]
				merged.Merge(r.Hists[name])
				rep.MergedHists[key] = merged
			}
		}
		rep.Runs[i] = rec
	}
	return rep
}

// sortedKeys returns the map's keys in sorted order, so merging is
// order-stable (Summary.Merge is not exactly commutative in floating
// point).
func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// WriteJSON writes the report as indented JSON. encoding/json sorts map
// keys, so equal reports serialise to equal bytes.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
