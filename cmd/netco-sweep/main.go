// Command netco-sweep is the one driver of the experiment registry
// (internal/experiment): it fans a grid — kinds × scenarios × seeds ×
// parameter variants — out across a worker pool of isolated simulations
// and writes a mergeable JSON artifact. `netco-sweep -h` lists the
// registered kinds and, per kind, the grid and sizing flags it owns; all
// of that comes from the registry, so a new kind needs no edit here.
//
// Every run builds its own scheduler, pools and engines; results are
// ordered by grid position, so the artifact for a given grid is
// byte-identical whatever -workers is. Interrupting with SIGINT cancels
// not-yet-started runs and reports the completed prefix. A failed run
// (one that panicked) is recorded in the artifact and makes the exit
// status nonzero.
//
// Grid flags take comma-separated lists and cross: -loss 0,1,5 with
// -dup-pct 0,1 is six variants per (kind, scenario, seed), each tagged in
// its group name (loss1/dup0/impair/Central3); a 0 value is that axis's
// clean baseline. They edit the calibration, so they apply to every kind
// in the grid (TCP goodput under loss, chaos under duplication, ...).
// Impairments are seeded from the run seed.
//
// A kind that builds its own topology (load, ksweep, dos, hybrid, churn,
// scale) is defined on Central3 only and runs once however many scenarios
// the grid names, so `-kinds all -scenarios all` is the paper's whole
// evaluation (Table I, Figs. 4–8) plus every extension, each once. Where
// the paper publishes a value — the Table I cells — the report prints it
// beside the measured one.
//
// The execution flags compose and none changes results: -workers runs
// whole simulations concurrently (throughput across a grid), -partitions
// splits each packet simulation across the conservative parallel
// engine's domains (latency of a single run; see internal/sim/par) and
// -settle-workers parallelises the fluid allocator's settle. The hybrid
// and churn kinds are serial by construction (fluid tier and
// packet-exact region share one scheduler); an execution flag that no
// selected kind honours is refused. Host-time figures — build and run
// seconds, events/s, the partitioned engine's epoch counters, peak heap
// — go to the console only, never into the artifact.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"netco/internal/experiment"
	"netco/internal/runner"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "netco-sweep:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: it parses args with its own FlagSet
// (so tests can call it repeatedly), writes to stdout, and stops
// scheduling new runs when ctx is cancelled.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("netco-sweep", flag.ContinueOnError)
	var (
		kindsFlag = fs.String("kinds", "tcp,udp,ping", `experiment kinds to run, comma-separated, or "all" (`+experiment.KindNames()+")")
		scenFlag  = fs.String("scenarios", "Linespeed,Central3", `scenarios, comma-separated, or "all"`)
		seedsFlag = fs.String("seeds", "1", `seed list "1,2,3" or range "1:10" (inclusive)`)
		workers   = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		jsonPath  = fs.String("json", "", "write the full report as JSON to this file")
		quick     = fs.Bool("quick", false, "smoke-test durations")
		full      = fs.Bool("full", false, "paper-faithful durations (10s × 10 runs)")
	)
	for _, ax := range experiment.Axes() {
		fs.String(ax.Flag, ax.Default, ax.Usage)
	}
	// The FlagSet prints nothing itself: a bad flag's error goes back to
	// main, which prints it once on stderr, and only -h prints the usage.
	fs.Usage = func() { usage(fs) }
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		fs.SetOutput(stdout)
		fs.Usage()
		return nil // -h: the usage is the output asked for
	} else if err != nil {
		return err
	}
	if fs.NArg() > 0 { // flag stops parsing here: every later flag would be dropped too
		return fmt.Errorf("unexpected argument %q: every option is a flag (see -h)", fs.Arg(0))
	}

	kinds, err := parseList("-kinds", *kindsFlag, experiment.AllKinds, experiment.ParseKind)
	if err != nil {
		return err
	}
	scenarios, err := parseList("-scenarios", *scenFlag, experiment.AllScenarios, experiment.ParseScenario)
	if err != nil {
		return err
	}
	seeds, err := parseSeeds(*seedsFlag)
	if err != nil {
		return err
	}
	if err := checkExecFlags(fs, kinds); err != nil {
		return err
	}
	if *quick && *full {
		return errors.New("-quick and -full are two calibrations: give one")
	}

	base := experiment.DefaultParams()
	if *full {
		base = base.PaperFaithful()
	}
	if *quick {
		base = base.Quick()
	}
	values := map[string]string{}
	for _, ax := range experiment.Axes() {
		values[ax.Flag] = fs.Lookup(ax.Flag).Value.String()
	}
	variants, err := runner.Expand(runner.Variant{Params: base}, values)
	if err != nil {
		return err
	}

	grid := runner.Grid{Kinds: kinds, Scenarios: scenarios, Seeds: seeds, Variants: variants}
	jobs, err := grid.Jobs()
	if err != nil {
		return err
	}
	cross := len(kinds) * len(scenarios) * len(seeds) * len(variants)
	fmt.Fprintf(stdout, "sweep: %d runs (%d kinds × %d scenarios × %d seeds × %d variants), workers=%d\n",
		len(jobs), len(kinds), len(scenarios), len(seeds), len(variants), effectiveWorkers(*workers))
	if len(jobs) < cross {
		fmt.Fprintf(stdout, "sweep: %d of the %d crossings skipped: a kind runs only on the scenarios it is defined on (see -h)\n",
			cross-len(jobs), cross)
	}

	start := time.Now()
	rep := runner.Sweep(ctx, *workers, jobs)
	wall := time.Since(start)

	printReport(stdout, rep)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	fmt.Fprintf(stdout, "host: %.2f s wall, peak heap %.0f MiB\n", wall.Seconds(), float64(mem.HeapSys-mem.HeapReleased)/(1<<20))
	if *jsonPath != "" {
		if err := writeReport(*jsonPath, rep); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "report written to %s\n", *jsonPath)
	}
	if ctx.Err() != nil {
		return fmt.Errorf("interrupted after %d completed runs", len(rep.Runs)-rep.Failed)
	}
	if rep.Failed > 0 {
		return fmt.Errorf("%d of %d runs failed", rep.Failed, len(rep.Runs))
	}
	return nil
}

func writeReport(path string, rep runner.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// usage prints the registry: every kind with the flags it owns, then the
// flag defaults.
func usage(fs *flag.FlagSet) {
	w := fs.Output()
	fmt.Fprintln(w, "usage: netco-sweep [-kinds k,...] [-scenarios all|name,...] [-seeds 1,2,3|1:10] [grid flags] [-workers n] [-json f] [-quick|-full]")
	fmt.Fprintln(w, "a grid flag takes a comma-separated list and crosses one variant per value into the sweep")
	fmt.Fprintln(w, "kinds, with the flags each owns:")
	for _, k := range experiment.AllKinds {
		row := k.Row()
		var flags []string
		for _, ax := range append(append([]*experiment.Axis{}, row.Axes...), row.Exec...) {
			flags = append(flags, "-"+ax.Flag)
		}
		doc := row.Doc
		if row.Scenarios != nil {
			doc += "; on " + strings.Trim(fmt.Sprint(row.Scenarios), "[]") + " only"
		}
		fmt.Fprintf(w, "  %-9s %s\n", row.Name, doc)
		if len(flags) > 0 {
			fmt.Fprintf(w, "            %s\n", strings.Join(flags, " "))
		}
	}
	fmt.Fprintln(w, "  POX3 runs serial at any -partitions: its controller and both edges share state, so the testbed is one unit")
	fmt.Fprintln(w, "flags:")
	fs.PrintDefaults()
}

// checkExecFlags refuses an execution flag given explicitly when no
// selected kind lists it in Row.Exec: the run would silently ignore it.
func checkExecFlags(fs *flag.FlagSet, kinds []experiment.Kind) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		var owners []string
		used := false
		for _, k := range experiment.AllKinds {
			for _, ax := range k.Row().Exec {
				if ax.Flag == f.Name {
					owners = append(owners, k.String())
					used = used || slices.Contains(kinds, k)
				}
			}
		}
		if len(owners) > 0 && !used && err == nil {
			err = fmt.Errorf("-%s changes nothing for the selected kinds: it is an execution flag of %s", f.Name, strings.Join(owners, ", "))
		}
	})
	return err
}

func effectiveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

func printReport(w io.Writer, rep runner.Report) {
	paper := map[string]float64{} // merged key → published value
	for _, rec := range rep.Runs {
		if rec.Err != "" {
			fmt.Fprintf(w, "  %-24s seed=%-4d FAILED: %s\n", rec.Group, rec.Seed, rec.Err)
			continue
		}
		if metric, v, ok := published(rec.Result); ok {
			paper[rec.Group+"."+metric] = v
		}
		fmt.Fprintf(w, "  %-24s seed=%-4d %s\n", rec.Group, rec.Seed, headline(rec.Result))
		if rec.Result.Wall != "" {
			fmt.Fprintf(w, "  %-24s           %s\n", "", rec.Result.Wall)
		}
	}
	if len(rep.Merged) > 0 {
		fmt.Fprintln(w, "merged:")
	}
	for _, k := range sortedKeys(rep.Merged) {
		s := rep.Merged[k]
		note := ""
		if v, ok := paper[k]; ok {
			note = paperNote(v, s.Mean())
		}
		fmt.Fprintf(w, "  %-36s n=%-3d mean=%.3f min=%.3f max=%.3f std=%.3f%s\n",
			k, s.N(), s.Mean(), s.Min(), s.Max(), s.Std(), note)
	}
	if len(rep.MergedHists) > 0 {
		fmt.Fprintln(w, "merged hists:")
	}
	for _, k := range sortedKeys(rep.MergedHists) {
		h := rep.MergedHists[k]
		fmt.Fprintf(w, "  %-36s n=%-6d p50=%.3f p95=%.3f max=%.3f\n",
			k, h.N(), h.Quantile(0.5), h.Quantile(0.95), h.Max())
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// headline prints the metrics the run's registry row names as its most
// informative (every metric, for a row that names none), counts without
// decimals, and the published value beside the metric that has one.
func headline(res *experiment.Result) string {
	var keys []string
	if k, err := experiment.ParseKind(res.Kind); err == nil {
		keys = k.Row().Headline
	}
	if len(keys) == 0 {
		keys = sortedKeys(res.Metrics)
	}
	metric, pv, hasPaper := published(res)
	var parts []string
	for _, key := range keys {
		v, ok := res.Metrics[key]
		if !ok {
			continue
		}
		format := "%s=%.3f"
		if v == math.Trunc(v) {
			format = "%s=%.0f"
		}
		part := fmt.Sprintf(format, key, v)
		if hasPaper && key == metric {
			part += paperNote(pv, v)
		}
		parts = append(parts, part)
	}
	return strings.Join(parts, " ")
}

// published returns the paper's value of the run's first headline
// metric, for the (kind, scenario) cells the paper reports.
func published(res *experiment.Result) (metric string, v float64, ok bool) {
	k, kerr := experiment.ParseKind(res.Kind)
	s, serr := experiment.ParseScenario(res.Scenario)
	if kerr != nil || serr != nil || len(k.Row().Headline) == 0 {
		return "", 0, false
	}
	v, ok = k.Row().Paper[s]
	return k.Row().Headline[0], v, ok
}

func paperNote(paper, measured float64) string {
	return fmt.Sprintf(" paper=%g (×%.2f)", paper, measured/paper)
}

// parseList resolves a comma-separated list of names, or "all". A name
// given twice would run twice and merge as n=2 under one group name.
func parseList[T comparable](flagName, spec string, all []T, parse func(string) (T, error)) ([]T, error) {
	if strings.EqualFold(spec, "all") {
		return all, nil
	}
	var out []T
	for _, name := range strings.Split(spec, ",") {
		v, err := parse(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		if slices.Contains(out, v) {
			return nil, fmt.Errorf("%s names %v twice", flagName, v)
		}
		out = append(out, v)
	}
	return out, nil
}

// maxSeeds bounds a lo:hi seed range: a longer one is a typo, and would
// exhaust memory before the first run.
const maxSeeds = 1_000_000

func parseSeeds(spec string) ([]int64, error) {
	if lo, hi, ok := strings.Cut(spec, ":"); ok {
		a, err1 := strconv.ParseInt(strings.TrimSpace(lo), 10, 64)
		b, err2 := strconv.ParseInt(strings.TrimSpace(hi), 10, 64)
		// span is hi-lo, computed without overflow; the loop counts to it
		// rather than testing s <= hi, which holds forever at MaxInt64.
		span := uint64(b) - uint64(a)
		if err1 != nil || err2 != nil || b < a || span >= maxSeeds {
			return nil, fmt.Errorf("bad seed range %q (want lo:hi, lo <= hi, at most %d seeds)", spec, maxSeeds)
		}
		seeds := make([]int64, 0, span+1)
		for i := uint64(0); i <= span; i++ {
			seeds = append(seeds, a+int64(i))
		}
		return seeds, nil
	}
	var seeds []int64
	for _, part := range strings.Split(spec, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %v", part, err)
		}
		seeds = append(seeds, s)
	}
	return seeds, nil
}
