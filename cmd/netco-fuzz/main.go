// Command netco-fuzz is the long-running driver for the Byzantine
// scenario fuzzer (internal/harness): it generates seeded random
// scenarios, executes each in an isolated simulation across a worker
// pool, and enforces the four invariant oracles — masking, detection,
// no-forgery and determinism. Violations are greedily shrunk and written
// as replayable JSON artifacts;
//
//	go test ./internal/harness/ -run TestHarnessReplay -harness.replay=<file>
//
// re-executes one exactly.
//
// Usage:
//
//	netco-fuzz [-n 200] [-budget 0s] [-seed 1] [-workers 0]
//	           [-weaken] [-expect-catch] [-chaos] [-impair]
//	           [-artifacts dir] [-json f]
//
// -n bounds the scenario count; -budget (when > 0) additionally bounds
// wall-clock time, stopping after the batch in flight. -weaken switches
// every scenario to the sabotage configuration (majority threshold one
// below a strict majority) and -expect-catch inverts the exit logic: the
// run fails unless the no-forgery oracle fires — the self-test that
// proves the oracles have teeth. -chaos adds a timed fault plan (router
// crashes, compare restarts, link flaps) to every scenario, arming the
// recovery oracle alongside no-forgery and determinism. -impair attaches
// a trunk impairment pipeline (loss, Gilbert-Elliott bursts,
// duplication, corruption, reordering) to every scenario; under noise
// the enforced claims are no-forgery and determinism.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"netco/internal/harness"
	"netco/internal/pool"
	"netco/internal/sim"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "netco-fuzz:", err)
		os.Exit(1)
	}
}

// summary is the machine-readable run report (-json).
type summary struct {
	Scenarios  int      `json:"scenarios"`
	Violations int      `json:"violations"`
	Oracles    []string `json:"oracles,omitempty"`
	Artifacts  []string `json:"artifacts,omitempty"`
	ElapsedMs  int64    `json:"elapsed_ms"`
	Seed       int64    `json:"seed"`
	Weaken     bool     `json:"weaken,omitempty"`
	Chaos      bool     `json:"chaos,omitempty"`
	Impair     bool     `json:"impair,omitempty"`
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("netco-fuzz", flag.ContinueOnError)
	var (
		n           = fs.Int("n", 200, "number of scenarios to check")
		budget      = fs.Duration("budget", 0, "optional wall-clock budget (0 = unlimited)")
		seed        = fs.Int64("seed", 1, "generator seed")
		workers     = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		weaken      = fs.Bool("weaken", false, "sabotage mode: weakened compare majority in every scenario")
		expectCatch = fs.Bool("expect-catch", false, "fail unless the no-forgery oracle fires (use with -weaken)")
		chaosMode   = fs.Bool("chaos", false, "add a timed fault plan (crashes, restarts, flaps) to every scenario")
		impairMode  = fs.Bool("impair", false, "attach a trunk impairment pipeline (loss, bursts, dup, corruption, reorder) to every scenario")
		artifacts   = fs.String("artifacts", "", "directory for minimized counterexample artifacts")
		jsonPath    = fs.String("json", "", "write the run summary as JSON to this file")
	)
	// The FlagSet prints nothing itself: a bad flag's error goes back to
	// main, which prints it once on stderr, and only -h prints the usage.
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
	if *n <= 0 {
		return fmt.Errorf("-n must be positive")
	}

	opts := harness.Options{Weaken: *weaken, Chaos: *chaosMode, Impair: *impairMode}
	rng := sim.NewRNG(*seed)
	start := time.Now()
	sum := summary{Seed: *seed, Weaken: *weaken, Chaos: *chaosMode, Impair: *impairMode}
	oracleSeen := make(map[string]bool)

	// Generate-and-check in batches so a -budget can stop between them
	// without abandoning in-flight work.
	const batch = 32
	for sum.Scenarios < *n {
		if ctx.Err() != nil {
			break
		}
		if *budget > 0 && time.Since(start) >= *budget {
			break
		}
		want := *n - sum.Scenarios
		if want > batch {
			want = batch
		}
		scs := make([]harness.Scenario, want)
		for i := range scs {
			scs[i] = harness.Generate(rng, opts)
		}
		results, errs := pool.Map(ctx, *workers, want, func(i int) (harness.CheckResult, error) {
			return harness.Check(scs[i])
		})
		for i := range results {
			if errs[i] != nil {
				if ctx.Err() != nil {
					break
				}
				return fmt.Errorf("scenario %d: %w", sum.Scenarios+i, errs[i])
			}
			sum.Scenarios++
			oracles := results[i].Oracles()
			if len(oracles) == 0 {
				continue
			}
			sum.Violations++
			for _, o := range oracles {
				if !oracleSeen[o] {
					oracleSeen[o] = true
					sum.Oracles = append(sum.Oracles, o)
				}
			}
			fmt.Fprintf(stdout, "violation: oracles=%v seed=%d topo=%s k=%d\n",
				oracles, scs[i].Seed, scs[i].Topology, scs[i].K)
			if *artifacts != "" {
				min := harness.Shrink(scs[i], oracles, 120)
				path := filepath.Join(*artifacts, fmt.Sprintf("ce-%d.json", scs[i].Seed))
				if err := harness.WriteArtifact(path, harness.Artifact{
					Scenario: min,
					Expect:   oracles,
					Note:     fmt.Sprintf("netco-fuzz -seed=%d, minimized", *seed),
				}); err != nil {
					return err
				}
				sum.Artifacts = append(sum.Artifacts, path)
				fmt.Fprintf(stdout, "  minimized artifact: %s\n", path)
			}
		}
	}
	sum.ElapsedMs = time.Since(start).Milliseconds()
	sortedOracles(sum.Oracles)

	fmt.Fprintf(stdout, "fuzz: %d scenarios, %d violations in %s\n",
		sum.Scenarios, sum.Violations, time.Duration(sum.ElapsedMs)*time.Millisecond)
	if *jsonPath != "" {
		b, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "summary written to %s\n", *jsonPath)
	}
	if ctx.Err() != nil {
		return fmt.Errorf("interrupted after %d scenarios", sum.Scenarios)
	}

	if *expectCatch {
		if !oracleSeen[harness.OracleNoForgery] {
			return fmt.Errorf("expected the no-forgery oracle to fire, but it never did (%d scenarios)", sum.Scenarios)
		}
		fmt.Fprintln(stdout, "expect-catch: no-forgery oracle fired — oracles have teeth")
		return nil
	}
	if sum.Violations > 0 {
		return fmt.Errorf("%d of %d scenarios violated an oracle", sum.Violations, sum.Scenarios)
	}
	return nil
}

func sortedOracles(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
