package experiment

import (
	"fmt"
	"math"
	"strings"

	"netco/internal/metrics"
)

// ParseScenario resolves a paper scenario name (case-insensitive).
func ParseScenario(name string) (Scenario, error) {
	for s := ScenLinespeed; s <= ScenInline3; s++ {
		if strings.EqualFold(name, s.String()) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("experiment: unknown scenario %q", name)
}

// Result is one experiment run's outcome in a flat, merge-friendly form:
// scalar metrics for reporting plus summaries the sweep runner merges
// across runs of the same (kind, scenario) group. All fields marshal
// deterministically (encoding/json sorts map keys), which is what lets
// the sweep CLI promise byte-identical artifacts regardless of worker
// count.
type Result struct {
	Kind     string `json:"kind"`
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	// Metrics holds the run's scalar measurements. NaN/Inf values (e.g.
	// statistics of an empty sample set) are omitted rather than faked
	// as zeros — JSON cannot carry them.
	Metrics map[string]float64 `json:"metrics"`
	// Summaries holds the run's distributions, mergeable across runs via
	// metrics.Summary.Merge.
	Summaries map[string]metrics.Summary `json:"summaries,omitempty"`
	// Hists holds the run's streaming histogram sketches (hybrid runs'
	// per-flow rate/goodput distributions), mergeable across runs via
	// metrics.Hist.Merge.
	Hists map[string]metrics.Hist `json:"hists,omitempty"`
	// Digest is the engine's own determinism witness, for the kinds that
	// have one (hybrid, churn, scale): equal digests mean equal runs down
	// to float bits, so it is part of the bytes artifacts are compared by.
	Digest string `json:"digest,omitempty"`
	// Wall is the run's host-time line for the console (build and run
	// seconds, events/s, the partitioned engine's counters). It follows
	// the wall clock, so it never enters an artifact.
	Wall string `json:"-"`
}

func newResult() Result { return Result{Metrics: make(map[string]float64)} }

// setMetric records a scalar, dropping non-finite values.
func (r *Result) setMetric(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	r.Metrics[name] = v
}

// sample records a scalar that is also the run's one sample of the
// summary of the same name, which the sweep merges across seeds.
func (r *Result) sample(name string, v float64) {
	r.setMetric(name, v)
	var s metrics.Summary
	s.Add(v)
	r.addSummary(name, s)
}

func (r *Result) setImpair(c ImpairCounters) {
	r.setMetric("impair_drops", float64(c.ImpairDrops))
	r.setMetric("impair_corrupted", float64(c.Corrupted))
	r.setMetric("impair_duplicated", float64(c.Duplicated))
	r.setMetric("impair_reordered", float64(c.Reordered))
}

func (r *Result) addSummary(name string, s metrics.Summary) {
	if s.N() == 0 {
		return
	}
	if r.Summaries == nil {
		r.Summaries = make(map[string]metrics.Summary)
	}
	r.Summaries[name] = s
}

// Run executes one experiment kind as a pure function of its inputs. The
// seed argument overrides p.Seed, so a sweep can fan one Params out
// across a seed grid without mutating shared state. Run never shares
// schedulers, pools or engines with other invocations; it is safe to
// call from many goroutines at once.
func Run(k Kind, p Params, sz Sizing, s Scenario, seed int64) Result {
	row := k.Row()
	p.Seed = seed
	res := row.Run(p, sz, s)
	res.Kind, res.Scenario, res.Seed = row.Name, s.String(), seed
	return res
}
