package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"netco/internal/experiment"
)

// sweepReport mirrors the JSON shape runner.Report.WriteJSON emits; the
// test decodes into it so any field rename breaks loudly here.
type sweepReport struct {
	Runs []struct {
		Group  string `json:"group"`
		Seed   int64  `json:"seed"`
		Err    string `json:"err,omitempty"`
		Result struct {
			Metrics map[string]float64 `json:"metrics"`
		} `json:"result"`
	} `json:"runs"`
	MergedHists map[string]struct {
		N uint64 `json:"n"`
	} `json:"merged_hists"`
	Failed int `json:"failed"`
}

// TestRunJSONShape drives a real (quick) sweep through the CLI and
// checks both the console output and the JSON artifact shape.
func TestRunJSONShape(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "report.json")
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-kinds", "ping",
		"-scenarios", "Linespeed",
		"-seeds", "1,2",
		"-workers", "2",
		"-quick",
		"-json", jsonPath,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}

	out := buf.String()
	if !strings.Contains(out, "sweep: 2 runs (1 kinds × 1 scenarios × 2 seeds × 1 variants), workers=2") {
		t.Errorf("missing sweep header in output:\n%s", out)
	}
	if !strings.Contains(out, "merged:") {
		t.Errorf("missing merged summary in output:\n%s", out)
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep sweepReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(rep.Runs) != 2 || rep.Failed != 0 {
		t.Fatalf("want 2 clean runs, got %d runs / %d failed", len(rep.Runs), rep.Failed)
	}
	for _, r := range rep.Runs {
		if r.Err != "" {
			t.Errorf("run %s seed=%d failed: %s", r.Group, r.Seed, r.Err)
		}
		if _, ok := r.Result.Metrics["rtt_avg_ms"]; !ok {
			t.Errorf("run %s seed=%d missing rtt_avg_ms: %v", r.Group, r.Seed, r.Result.Metrics)
		}
	}
}

// TestRunHybridSurfacesHists drives a quick hybrid sweep and checks the
// histogram sketches reach both the console summary and the JSON
// artifact's merged_hists map.
func TestRunHybridSurfacesHists(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "report.json")
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-kinds", "hybrid",
		"-scenarios", "Central3",
		"-seeds", "1",
		"-workers", "1",
		"-quick",
		"-json", jsonPath,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}

	out := buf.String()
	if !strings.Contains(out, "merged hists:") {
		t.Errorf("missing merged hists section in output:\n%s", out)
	}
	if !strings.Contains(out, "hybrid/Central3.flow_rate_mbps") {
		t.Errorf("hist key not surfaced on console:\n%s", out)
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep sweepReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	for _, key := range []string{
		"hybrid/Central3.flow_rate_mbps",
		"hybrid/Central3.flow_goodput_mbps",
		"hybrid/Central3.region_wire_bytes",
		"hybrid/Central3.region_gap_us",
	} {
		if h, ok := rep.MergedHists[key]; !ok || h.N == 0 {
			t.Errorf("merged_hists[%q] missing or empty (ok=%v)", key, ok)
		}
	}
}

// TestRunFlagParsing exercises the argument validators: each case must
// be refused before any run starts.
func TestRunFlagParsing(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown kind", []string{"-kinds", "bogus"}},
		{"unknown scenario", []string{"-scenarios", "NoSuch"}},
		{"bad seed", []string{"-seeds", "x"}},
		{"inverted seed range", []string{"-seeds", "9:1"}},
		{"seed range too long", []string{"-seeds", "1:99999999999"}},
		{"bad trunk rate", []string{"-trunk-mbps", "-5"}},
		{"unknown flag", []string{"-no-such-flag"}},
		{"bad loss", []string{"-loss", "nope"}},
		{"bad loss corr", []string{"-loss", "1", "-loss-corr", "100"}},
		{"bad ge tuple arity", []string{"-loss-ge", "1"}},
		{"bad ge value", []string{"-loss-ge", "1:borked"}},
		{"ge absorbing bad state", []string{"-loss-ge", "1:0"}},
		{"bad dup", []string{"-dup-pct", "-1"}},
		{"bad corrupt", []string{"-corrupt-pct", "x"}},
		{"bad reorder pct", []string{"-reorder-ms", "2", "-reorder-pct", "120"}},
		// Each of the following was accepted before the axes shared one
		// parser: NaN passes `v <= 0` and `v < 0` checks and ran as a clean
		// link tagged lossNaN; out-of-range percents panicked inside every
		// run; 1.5 crashes ran as 1 under the name crash1.5.
		{"nan trunk rate", []string{"-trunk-mbps", "nan"}},
		{"nan loss", []string{"-loss", "nan"}},
		{"nan reorder", []string{"-reorder-ms", "NaN"}},
		{"inf flap", []string{"-chaos-flap-ms", "inf"}},
		{"flap below a microsecond", []string{"-chaos-flap-ms", "0.000001"}},
		{"loss over 100", []string{"-loss", "150"}},
		{"dup over 100", []string{"-dup-pct", "250"}},
		{"corrupt over 100", []string{"-corrupt-pct", "100.5"}},
		{"fractional crashes", []string{"-chaos-crashes", "1.5"}},
		{"negative partitions", []string{"-partitions", "-1"}},
		{"odd arity", []string{"-arity", "5"}},
		{"arity 2", []string{"-arity", "2"}},
		{"zero flows per host", []string{"-flows-per-host", "0"}},
		{"zero arrival rate", []string{"-arrival-rate", "0"}},
		{"fractional settle workers", []string{"-settle-workers", "0.5"}},
		// An execution flag no selected kind lists in Row.Exec used to run
		// serial without a word; -quick -full used to take -quick.
		{"partitions without a partitioned kind", []string{"-kinds", "hybrid,churn", "-partitions", "4"}},
		{"settle workers without a fluid kind", []string{"-kinds", "ping", "-settle-workers", "2"}},
		{"two calibrations", []string{"-quick", "-full"}},
		{"every crossing skipped", []string{"-kinds", "hybrid", "-scenarios", "Linespeed"}},
		// A stray positional used to be ignored along with every flag after
		// it (this ran one seed, exit 0); a repeated value used to run twice
		// and merge as n=2 under one group name.
		{"stray positional", []string{"-quick", "extra", "-seeds", "1:5"}},
		{"repeated kind", []string{"-kinds", "ping,ping"}},
		{"repeated scenario", []string{"-scenarios", "Central3,central3"}},
		{"repeated grid value", []string{"-trunk-mbps", "100,100"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(context.Background(), tc.args, &buf); err == nil {
				t.Errorf("args %v accepted, want error", tc.args)
			}
			if strings.Contains(buf.String(), "sweep:") {
				t.Errorf("args %v started the sweep:\n%s", tc.args, buf.String())
			}
		})
	}
}

// TestRunHelp: -h prints the usage, with the kinds and flags, and
// succeeds without starting a sweep.
func TestRunHelp(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-h"}, &buf); err != nil {
		t.Fatalf("-h: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"usage: netco-sweep", "\n  ping ", "\n  -kinds"} {
		if !strings.Contains(out, want) {
			t.Errorf("-h output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "sweep:") {
		t.Errorf("-h started the sweep:\n%s", out)
	}
}

// TestParseSeeds: a range ending at MaxInt64 stops there instead of
// wrapping, and the longest accepted range is maxSeeds long.
func TestParseSeeds(t *testing.T) {
	cases := []struct {
		spec string
		want []int64
	}{
		{"-1:1", []int64{-1, 0, 1}},
		{"9223372036854775806:9223372036854775807", []int64{math.MaxInt64 - 1, math.MaxInt64}},
		{"-9223372036854775808:-9223372036854775808", []int64{math.MinInt64}},
	}
	for _, tc := range cases {
		got, err := parseSeeds(tc.spec)
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("parseSeeds(%q) = %v, %v; want %v", tc.spec, got, err, tc.want)
		}
	}
	if got, err := parseSeeds(fmt.Sprintf("1:%d", maxSeeds)); err != nil || len(got) != maxSeeds || got[maxSeeds-1] != maxSeeds {
		t.Errorf("1:%d: %d seeds, err %v; want %d", maxSeeds, len(got), err, maxSeeds)
	}
	for _, spec := range []string{fmt.Sprintf("1:%d", maxSeeds+1), "-9223372036854775808:9223372036854775807"} {
		if _, err := parseSeeds(spec); err == nil || !strings.Contains(err.Error(), "bad seed range") {
			t.Errorf("parseSeeds(%q) err = %v, want a bad seed range error", spec, err)
		}
	}
}

// TestRunExecFlagErrorNamesOwners: the refusal says which kinds the flag
// belongs to, and the flag is accepted as soon as one of them is selected.
func TestRunExecFlagErrorNamesOwners(t *testing.T) {
	err := run(context.Background(), []string{"-kinds", "hybrid", "-partitions", "4"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "-partitions") || !strings.Contains(err.Error(), "tcp, udp, load, ping") {
		t.Fatalf("err = %v, want -partitions refused with its owning kinds", err)
	}
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-kinds", "hybrid,scale", "-scenarios", "Central3", "-partitions", "4"}, &buf); err != nil {
		t.Fatalf("-partitions with scale selected: %v\n%s", err, buf.String())
	}
}

// TestRunPaperColumn: Table I is the tcp, udp and ping rows over the
// scenarios; the report prints the published value and the measured/paper
// ratio beside the measured one, per run and per merged group, and
// nothing for a scenario the paper's table lacks. Counts print whole.
func TestRunPaperColumn(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-quick", "-kinds", "tcp,udp,ping", "-scenarios", "Linespeed,Central3,POX3",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	paper := map[string]string{
		"tcp/Linespeed": "474", "udp/Linespeed": "278", "ping/Linespeed": "0.181",
		"tcp/Central3": "145", "udp/Central3": "245", "ping/Central3": "0.319",
		"tcp/POX3": "", "udp/POX3": "", "ping/POX3": "",
	}
	seen := map[string]int{}
	for _, line := range strings.Split(buf.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		group, _, _ := strings.Cut(fields[0], ".") // a run line's group, or a merged line's group.summary
		want, ok := paper[group]
		if !ok {
			continue
		}
		seen[group]++
		switch {
		case want == "" && strings.Contains(line, "paper="):
			t.Errorf("%s has no published value, yet: %s", group, line)
		case want != "" && !strings.Contains(line, " paper="+want+" (×"):
			t.Errorf("%s: want paper=%s (×ratio) in: %s", group, want, line)
		}
	}
	for group := range paper {
		if seen[group] != 2 {
			t.Errorf("%s: %d report lines, want a run line and a merged line\n%s", group, seen[group], buf.String())
		}
	}
	if !strings.Contains(buf.String(), " ping_received=20\n") {
		t.Errorf("ping_received is a count and should print as 20:\n%s", buf.String())
	}
}

// boom is a registry row whose every run panics, added the way any test
// adds a kind: no edit to the CLI.
var boom = experiment.Register(experiment.Row{
	Name: "test-boom",
	Run: func(experiment.Params, experiment.Sizing, experiment.Scenario) experiment.Result {
		panic("boom")
	},
})

// TestRunFailedRunsExitNonzero: a grid in which a run panics still writes
// its artifact (the failure is recorded, deterministically) but must not
// exit 0 — two artifacts recording the same panic would otherwise `cmp`
// equal and pass a determinism leg.
func TestRunFailedRunsExitNonzero(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "report.json")
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-kinds", "ping," + boom.String(), "-scenarios", "Linespeed", "-quick", "-json", jsonPath,
	}, &buf)
	if err == nil || !strings.Contains(err.Error(), "1 of 2 runs failed") {
		t.Fatalf("err = %v, want the failed-run count\n%s", err, buf.String())
	}
	raw, rerr := os.ReadFile(jsonPath)
	if rerr != nil {
		t.Fatal(rerr)
	}
	var rep sweepReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 || rep.Runs[1].Err != "panic: boom" || rep.Runs[0].Err != "" {
		t.Fatalf("artifact does not record the one failure: %+v", rep)
	}
}

// TestRunScaleJSON drives the scale row through the CLI on the
// partitioned engine: the host-time figures — build and run seconds and
// the engine's own counters — reach the console, and the artifact
// carries the digest and event count but nothing that follows the wall
// clock.
func TestRunScaleJSON(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "scale.json")
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-kinds", "scale", "-scenarios", "Central3", "-arity", "8", "-partitions", "2", "-quick", "-json", jsonPath,
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	for _, want := range []string{"arity8/scale/Central3", "build ", " events/s", "2 partitions: ", " epochs, ", "% inline", "hand-offs", "peak heap"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("console output lacks %q:\n%s", want, buf.String())
		}
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, leak := range []string{"epochs", "inline", "handoffs", "imbalance", "build", "wall"} {
		if strings.Contains(string(raw), leak) {
			t.Errorf("artifact mentions %q: host-time figures must stay on the console", leak)
		}
	}
	var rep struct {
		Runs []struct {
			Result struct {
				Metrics map[string]float64 `json:"metrics"`
				Digest  string             `json:"digest"`
			} `json:"result"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	r := rep.Runs[0].Result
	if r.Metrics["scale_hosts"] != 128 || r.Metrics["scale_events"] == 0 || !strings.HasPrefix(r.Digest, "scale=") {
		t.Errorf("scale result looks unset: %+v", r)
	}
}

// TestRunTwice guards the FlagSet refactor: the old global-flag version
// panicked on duplicate registration.
func TestRunTwice(t *testing.T) {
	for i := 0; i < 2; i++ {
		var buf bytes.Buffer
		err := run(context.Background(), []string{
			"-kinds", "ping", "-scenarios", "Linespeed", "-seeds", "1", "-quick", "-workers", "1",
		}, &buf)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}
