package experiment_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"netco/internal/experiment"
	"netco/internal/runner"
)

// The determinism matrix: for every row of the experiment registry, the
// sweep artifact (every run's Result — metrics, summaries, histogram
// sketches and the engine digest — plus the merged sections) must be the
// same bytes across
//
//	sweep workers {1, 2} × every value of each execution axis the row
//	declares (partitions {1, 4}, settle workers {1, 2}) × GOMAXPROCS
//	{1, 2}, and across two runs of one cell.
//
// The row is run at the Probe point of its own grid axes (the impair row
// with every impairment stage on, the chaos row with a crash and a
// flapping trunk), over two seeds. It replaces the per-kind smoke legs
// and Go tests that each restated one slice of this; CHANGES.md maps
// them to cells.

// sabotage is a row whose result depends on how it is executed: the
// matrix must catch it, or it proves nothing.
var sabotage = experiment.Register(experiment.Row{
	Name: "test-sabotage",
	Run: func(experiment.Params, experiment.Sizing, experiment.Scenario) experiment.Result {
		return experiment.Result{Metrics: map[string]float64{"procs": float64(runtime.GOMAXPROCS(0))}}
	},
})

func TestDeterminismMatrix(t *testing.T) {
	for _, k := range experiment.AllKinds {
		if k == sabotage {
			continue
		}
		t.Run(k.String(), func(t *testing.T) {
			for _, cell := range divergentCells(t, k) {
				t.Errorf("artifact differs from the reference cell at %s", cell)
			}
		})
	}
}

func TestDeterminismMatrixCatchesSabotage(t *testing.T) {
	cells := divergentCells(t, sabotage)
	if len(cells) == 0 {
		t.Fatal("a row that folds GOMAXPROCS into a metric passed the matrix")
	}
	for _, cell := range cells {
		if !strings.Contains(cell, "GOMAXPROCS=2") {
			t.Errorf("cell %s diverged, but only GOMAXPROCS was sabotaged", cell)
		}
	}
}

// divergentCells runs kind k over its matrix and names every cell whose
// artifact differs from the reference (workers 1, first value of every
// execution axis, GOMAXPROCS 1).
func divergentCells(t *testing.T, k experiment.Kind) []string {
	t.Helper()
	row := k.Row()
	point := map[string]string{}
	for _, ax := range row.Axes {
		if len(ax.Probe) > 0 {
			point[ax.Flag] = ax.Probe[0]
		}
	}
	// Every combination of the row's execution-axis settings.
	execs := []map[string]string{{}}
	for _, ax := range row.Exec {
		var next []map[string]string
		for _, e := range execs {
			for _, v := range ax.Probe {
				c := map[string]string{ax.Flag: v}
				for f, w := range e {
					c[f] = w
				}
				next = append(next, c)
			}
		}
		execs = next
	}

	var ref []byte
	var bad []string
	if len(point) > 0 {
		// The probe point must be live — an impaired run that impairs
		// nothing would make the identities below vacuous.
		clean := artifact(t, k, nil, execs[0], 1, 1)
		if bytes.Equal(clean, artifact(t, k, point, execs[0], 1, 1)) {
			t.Errorf("probe point %v leaves the artifact unchanged", point)
		}
	}
	for _, exec := range execs {
		for _, workers := range []int{1, 2} {
			for _, procs := range []int{1, 2} {
				name := fmt.Sprintf("workers=%d %v GOMAXPROCS=%d", workers, exec, procs)
				got := artifact(t, k, point, exec, workers, procs)
				if ref == nil {
					ref = got
					name += " (second run)"
					got = artifact(t, k, point, exec, workers, procs)
				}
				if !bytes.Equal(got, ref) {
					bad = append(bad, name)
				}
			}
		}
	}
	return bad
}

// artifact sweeps kind k on Central3 over seeds {1, 2} at one cell and
// returns the report's JSON.
func artifact(t *testing.T, k experiment.Kind, point, exec map[string]string, workers, procs int) []byte {
	t.Helper()
	p := experiment.DefaultParams().Quick()
	p.TCPDuration = 100 * time.Millisecond
	p.UDPDuration = 60 * time.Millisecond
	p.PingCount = 5
	// A fiftieth of the calibrated trunk rate (and a tenth of the jitter
	// load): cost follows the packet count, and a trunk that TCP and the
	// UDP search saturate — and the 50 Mbit/s chaos and impair streams
	// overload — puts drop-tail loss, TCP recovery and compare holds on
	// every row's path.
	p.TrunkRate = 10e6
	p.JitterRate = 2e6
	values := map[string]string{}
	for f, v := range point {
		values[f] = v
	}
	for f, v := range exec {
		values[f] = v
	}
	variants, err := runner.Expand(runner.Variant{Params: p}, values)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := runner.Grid{
		Kinds:     []experiment.Kind{k},
		Scenarios: []experiment.Scenario{experiment.ScenCentral3},
		Seeds:     []int64{1, 2},
		Variants:  variants,
	}.Jobs()
	if err != nil {
		t.Fatal(err)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	rep := runner.Sweep(context.Background(), workers, jobs)
	for _, rec := range rep.Runs {
		if rec.Err != "" {
			t.Fatalf("%s seed %d failed: %s", rec.Group, rec.Seed, rec.Err)
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
