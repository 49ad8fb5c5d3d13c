// Command bench is the repository's one benchmark: six named workloads
// of the deterministic simulator, measured in host time from outside.
//
// The driver starts one run per process:
//
//	go run ./bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the JSON object on the last line of standard output. Without
// --workload the command runs the full set (nine plain repetitions and
// one traced one per workload, each in a fresh child process), prints
// every metric by name with its unit and writes bench/out/. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "run this one workload in this process and print one result line (driver mode)")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", runSeconds, "wall seconds one run measures")
		trace        = flag.Int("trace", 0, "1: traced run, report the per-layer metrics and write bench/out/trace_<workload>.json")
		aa           = flag.Bool("aa", false, "run the full set twice on this binary and fail if the two disagree beyond the bounds")
		update       = flag.Bool("update", false, "after the full set, rewrite BENCHMARK.json and bench/baseline.json")
		expectPath   = flag.String("expect", "", "compare each workload's digest with this baseline file and print traffic.sim_out_changed")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}

	switch {
	case *workloadName != "":
		w := workloadByName(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		res := runWorkload(w, runOpts{seed: *seed, seconds: *seconds, traced: *trace == 1, outDir: filepath.FromSlash(outDir)})
		for _, e := range res.detail.Errors {
			fmt.Fprintln(os.Stderr, "bench:", e)
		}
		d, _ := json.Marshal(res.detail)
		l, _ := json.Marshal(res.line)
		fmt.Printf("%s%s\n%s\n", detailPrefix, d, l)
		return 0

	case *expectPath != "":
		changed, err := expect(os.Stdout, *expectPath, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if changed {
			return 1
		}
		return 0
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	set := runSet(os.Stdout, exe, *seed, *seconds)
	failed := set.Failed > 0
	var noise []noiseRow
	breach := false
	if *aa {
		second := runSet(os.Stdout, exe, *seed, *seconds)
		noise, breach = compareSets(os.Stdout, set, second)
		failed = failed || second.Failed > 0
		set = second
	}
	if err := writeResult(set); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	// A noisy hour may breach the A/A bounds and is recorded as such; only
	// a failed repetition keeps the baseline from being replaced.
	if *update && !failed {
		if err := writeBaseline(set, noise); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		fmt.Println("wrote BENCHMARK.json and", baselinePath)
	}
	if failed || breach {
		return 1
	}
	return 0
}
