// Command netco-bench regenerates the paper's evaluation (§V): Table I
// and Figures 4–8, printing measured values side by side with the
// published ones.
//
// Usage:
//
//	netco-bench [-table1] [-fig4] [-fig5] [-fig6] [-fig7] [-fig8] [-all]
//	            [-arch] [-ksweep] [-dos] [-parallel n] [-serial] [-full] [-quick]
//	            [-seed n] [-csv dir] [-cpuprofile f] [-memprofile f] [-json f]
//
// Without selection flags, -all is assumed. -full uses the paper's
// methodology (10 s runs, 10 per direction); -quick uses smoke-test
// durations. -cpuprofile/-memprofile write pprof profiles of the run;
// -json writes every headline metric to a machine-readable file. The
// extension kinds (hybrid, chaos, impair, churn, scale) are rows of the
// experiment registry and run through cmd/netco-sweep.
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"netco"
	netmetrics "netco/internal/metrics"
	"netco/internal/pool"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "netco-bench:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: it parses args with its own FlagSet
// (so tests can call it repeatedly) and writes everything to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("netco-bench", flag.ContinueOnError)
	var (
		table1 = fs.Bool("table1", false, "reproduce Table I")
		fig4   = fs.Bool("fig4", false, "reproduce Fig. 4 (TCP throughput)")
		fig5   = fs.Bool("fig5", false, "reproduce Fig. 5 (UDP throughput)")
		fig6   = fs.Bool("fig6", false, "reproduce Fig. 6 (throughput vs loss, Central3)")
		fig7   = fs.Bool("fig7", false, "reproduce Fig. 7 (ping RTT)")
		fig8   = fs.Bool("fig8", false, "reproduce Fig. 8 (jitter vs packet size)")
		arch   = fs.Bool("arch", false, "extension: compare-placement architectures (Central3/Inline3/POX3)")
		ksweep = fs.Bool("ksweep", false, "extension: redundancy sweep k=1..7 (Central)")
		dos    = fs.Bool("dos", false, "extension: DoS attacks vs the §IV defences")
		all    = fs.Bool("all", false, "reproduce everything")
		full   = fs.Bool("full", false, "paper-faithful durations (10s × 10 runs)")
		quick  = fs.Bool("quick", false, "smoke-test durations")
		seed   = fs.Int64("seed", 1, "simulation seed")
		serial = fs.Bool("serial", false, "run scenarios sequentially (default: one worker per core)")
		para   = fs.Int("parallel", 0, "run each simulation on the parallel engine with this many partitions (0/1 = serial engine; results are bit-identical)")
		csvDir = fs.String("csv", "", "also write each figure's data as CSV files into this directory")

		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile (post-GC) at exit to this file")
		jsonPath   = fs.String("json", "", "write all headline metrics as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	// metrics accumulates every headline number printed below, keyed
	// section.scenario.quantity, for the -json report.
	metrics := map[string]float64{}

	if !(*table1 || *fig4 || *fig5 || *fig6 || *fig7 || *fig8 || *arch || *ksweep || *dos) {
		*all = true
	}

	p := netco.DefaultParams()
	if *full {
		p = p.PaperFaithful()
	}
	if *quick {
		p = p.Quick()
	}
	p.Seed = *seed
	p.Partitions = *para

	workers := runtime.GOMAXPROCS(0)
	if *serial {
		workers = 1
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	start := time.Now()
	if *all || *fig4 {
		fmt.Fprintln(stdout, "== Fig. 4: TCP throughput ==")
		results, err := parallelMap(workers, netco.AllScenarios, func(s netco.Scenario) netco.TCPResult {
			return netco.RunTCP(p, s)
		})
		if err != nil {
			return err
		}
		rows := [][]string{{"scenario", "mbps", "fast_retransmits", "timeouts", "dup_acks"}}
		for _, r := range results {
			fmt.Fprintf(stdout, "  %-10s %7.1f Mbit/s   (fast-rtx %d, timeouts %d, dup-acks %d)\n",
				r.Scenario, r.Mbps, r.FastRetransmits, r.Timeouts, r.DupAcks)
			metrics["fig4."+r.Scenario.String()+".tcp_mbps"] = r.Mbps
			rows = append(rows, []string{r.Scenario.String(), f1(r.Mbps),
				strconv.FormatUint(r.FastRetransmits, 10), strconv.FormatUint(r.Timeouts, 10),
				strconv.FormatUint(r.DupAcks, 10)})
		}
		if err := writeCSV(*csvDir, "fig4.csv", rows); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	if *all || *fig5 {
		fmt.Fprintln(stdout, "== Fig. 5: max UDP throughput at <0.5% loss ==")
		results, err := parallelMap(workers, netco.AllScenarios, func(s netco.Scenario) netco.UDPMaxResult {
			return netco.RunUDPMax(p, s)
		})
		if err != nil {
			return err
		}
		rows := [][]string{{"scenario", "mbps", "loss"}}
		for _, r := range results {
			fmt.Fprintf(stdout, "  %-10s %7.1f Mbit/s   (loss %.3f%%)\n", r.Scenario, r.Mbps, r.Loss*100)
			metrics["fig5."+r.Scenario.String()+".udp_mbps"] = r.Mbps
			rows = append(rows, []string{r.Scenario.String(), f1(r.Mbps), fmt.Sprintf("%.5f", r.Loss)})
		}
		if err := writeCSV(*csvDir, "fig5.csv", rows); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	if *all || *fig6 {
		fmt.Fprintln(stdout, "== Fig. 6: throughput vs loss rate (Central3) ==")
		fmt.Fprintf(stdout, "  %10s %12s %8s %10s\n", "offered", "achieved", "loss", "jitter")
		rows := [][]string{{"offered_mbps", "achieved_mbps", "loss", "jitter_us"}}
		for _, pt := range netco.RunFig6(p, nil) {
			fmt.Fprintf(stdout, "  %7.0f Mb %9.1f Mb %7.3f%% %10v\n",
				pt.OfferedMbps, pt.AchievedMbps, pt.Loss*100, pt.Jitter)
			key := fmt.Sprintf("fig6.offered%.0f", pt.OfferedMbps)
			metrics[key+".achieved_mbps"] = pt.AchievedMbps
			metrics[key+".loss"] = pt.Loss
			rows = append(rows, []string{f1(pt.OfferedMbps), f1(pt.AchievedMbps),
				fmt.Sprintf("%.5f", pt.Loss), f1(float64(pt.Jitter.Microseconds()))})
		}
		if err := writeCSV(*csvDir, "fig6.csv", rows); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	if *all || *fig7 {
		fmt.Fprintln(stdout, "== Fig. 7: ping round-trip time ==")
		results, err := parallelMap(workers, netco.TableScenarios, func(s netco.Scenario) netco.PingScenarioResult {
			return netco.RunPing(p, s)
		})
		if err != nil {
			return err
		}
		rows := [][]string{{"scenario", "avg_rtt_ms", "min_rtt_ms", "max_rtt_ms"}}
		for _, r := range results {
			fmt.Fprintf(stdout, "  %-10s avg %8.3f ms  (min %.3f, max %.3f; %d/%d replies)\n",
				r.Scenario, ms(r.AvgRTT), ms(r.MinRTT), ms(r.MaxRTT), r.Received, r.Sent)
			metrics["fig7."+r.Scenario.String()+".rtt_ms"] = ms(r.AvgRTT)
			rows = append(rows, []string{r.Scenario.String(),
				fmt.Sprintf("%.4f", ms(r.AvgRTT)), fmt.Sprintf("%.4f", ms(r.MinRTT)), fmt.Sprintf("%.4f", ms(r.MaxRTT))})
		}
		if err := writeCSV(*csvDir, "fig7.csv", rows); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	if *all || *fig8 {
		fmt.Fprintln(stdout, "== Fig. 8: jitter for varying packet sizes ==")
		series8, err := parallelMap(workers, netco.TableScenarios, func(s netco.Scenario) []netco.JitterPoint {
			return netco.RunJitter(p, s, nil)
		})
		if err != nil {
			return err
		}
		rows := [][]string{{"scenario", "payload_bytes", "jitter_us"}}
		for _, series := range series8 {
			fmt.Fprintf(stdout, "  %-10s", series[0].Scenario)
			for _, pt := range series {
				fmt.Fprintf(stdout, "  %4dB:%7v", pt.PayloadSize, pt.Jitter)
				metrics[fmt.Sprintf("fig8.%s.%dB.jitter_us", pt.Scenario, pt.PayloadSize)] = float64(pt.Jitter.Microseconds())
				rows = append(rows, []string{pt.Scenario.String(),
					strconv.Itoa(pt.PayloadSize), f1(float64(pt.Jitter.Microseconds()))})
			}
			fmt.Fprintln(stdout)
		}
		if err := writeCSV(*csvDir, "fig8.csv", rows); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	if *all || *arch {
		fmt.Fprintln(stdout, "== Extension: compare placement at k=3 (§IX alternative architectures) ==")
		for _, r := range netco.RunArchitectureComparison(p) {
			fmt.Fprintf(stdout, "  %-10s tcp %6.1f Mbit/s   udp %6.1f Mbit/s   rtt %.3f ms\n",
				r.Scenario, r.TCPMbps, r.UDPMbps, ms(r.AvgRTT))
			metrics["arch."+r.Scenario.String()+".tcp_mbps"] = r.TCPMbps
			metrics["arch."+r.Scenario.String()+".udp_mbps"] = r.UDPMbps
		}
		fmt.Fprintln(stdout)
	}
	if *all || *ksweep {
		fmt.Fprintln(stdout, "== Extension: redundancy sweep (Central, k = routers in parallel) ==")
		fmt.Fprintf(stdout, "  %2s %10s %12s %12s %10s\n", "k", "tolerates", "tcp Mbit/s", "udp Mbit/s", "rtt ms")
		for _, pt := range netco.RunKSweep(p, nil) {
			fmt.Fprintf(stdout, "  %2d %10d %12.1f %12.1f %10.3f\n",
				pt.K, pt.Tolerated, pt.TCPMbps, pt.UDPMbps, ms(pt.AvgRTT))
			metrics[fmt.Sprintf("ksweep.k%d.tcp_mbps", pt.K)] = pt.TCPMbps
		}
		fmt.Fprintln(stdout)
	}
	if *all || *dos {
		fmt.Fprintln(stdout, "== Extension: DoS attacks vs the §IV defences (Central3, 100 Mbit/s benign UDP) ==")
		r := netco.RunDoS(p)
		fmt.Fprintf(stdout, "  no attacker:                         %6.1f Mbit/s\n", r.BaselineMbps)
		fmt.Fprintf(stdout, "  replaying router, port blocking on:  %6.1f Mbit/s (%d blocks advised)\n", r.ReplayMbps, r.ReplayBlocks)
		fmt.Fprintf(stdout, "  60 kpps forged flood, isolated bufs: %6.1f Mbit/s (%d flood copies quota-dropped)\n", r.FloodIsolatedMbps, r.QuotaDrops)
		fmt.Fprintf(stdout, "  60 kpps forged flood, shared buffer: %6.1f Mbit/s\n", r.FloodSharedMbps)
		metrics["dos.baseline_mbps"] = r.BaselineMbps
		metrics["dos.replay_mbps"] = r.ReplayMbps
		metrics["dos.flood_isolated_mbps"] = r.FloodIsolatedMbps
		metrics["dos.flood_shared_mbps"] = r.FloodSharedMbps
		fmt.Fprintln(stdout)
	}
	if *all || *table1 {
		fmt.Fprintln(stdout, "== Table I: average measurement results (measured vs paper) ==")
		rows, err := parallelMap(workers, netco.TableScenarios, func(s netco.Scenario) netco.Table1Row {
			return netco.Table1Row{
				Scenario: s,
				TCPMbps:  netco.RunTCP(p, s).Mbps,
				UDPMbps:  netco.RunUDPMax(p, s).Mbps,
				AvgRTT:   netco.RunPing(p, s).AvgRTT,
			}
		})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, netco.FormatTable1(rows))
		csvRows := [][]string{{"scenario", "tcp_mbps", "udp_mbps", "rtt_ms"}}
		for _, r := range rows {
			csvRows = append(csvRows, []string{r.Scenario.String(), f1(r.TCPMbps), f1(r.UDPMbps),
				fmt.Sprintf("%.4f", ms(r.AvgRTT))})
			key := "table1." + r.Scenario.String()
			metrics[key+".tcp_mbps"] = r.TCPMbps
			metrics[key+".udp_mbps"] = r.UDPMbps
			metrics[key+".rtt_ms"] = ms(r.AvgRTT)
		}
		if err := writeCSV(*csvDir, "table1.csv", csvRows); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "completed in %v\n", time.Since(start).Round(time.Millisecond))

	if *jsonPath != "" {
		// The event-rate soak is the perf-trajectory headline (see
		// BENCH_1.json): simulated scheduler events per wall second on
		// the Central3 UDP workload.
		rate, cs := eventRate(p)
		metrics["events_per_sec"] = rate
		fmt.Fprintf(stdout, "classifier: %d lookups, %d mask probes, %d misses, %d masks\n",
			cs.Lookups, cs.MaskProbes, cs.Misses, cs.Masks)
		metrics["classifier.lookups"] = float64(cs.Lookups)
		metrics["classifier.mask_probes"] = float64(cs.MaskProbes)
		metrics["classifier.misses"] = float64(cs.Misses)
		metrics["classifier.masks"] = float64(cs.Masks)
		if err := writeJSON(*jsonPath, *seed, time.Since(start), metrics); err != nil {
			return err
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

// eventRate measures the simulator's wall-clock event rate: a Central3
// testbed under 100 Mbit/s UDP, 250 simulated milliseconds, reported as
// scheduler events per wall second. This is the same workload as the
// repo-level BenchmarkEngineIngest. It also returns the flow-table
// classifier counters aggregated across every switch in the testbed.
func eventRate(p netco.Params) (float64, netmetrics.ClassifierStats) {
	tb := netco.BuildTestbed(p.TestbedParams(netco.Central3, nil))
	defer tb.Close()
	netco.NewUDPSink(tb.H2, 5001)
	src := netco.NewUDPSource(tb.H1, 4001, tb.H2.Endpoint(5001), netco.UDPSourceConfig{
		Rate: 100e6, PayloadSize: 1470,
	})
	src.Start()
	tb.Sched.RunFor(50 * time.Millisecond) // warm up flows and pools
	before := tb.Sched.Executed()
	wall := time.Now()
	tb.Sched.RunFor(250 * time.Millisecond)
	secs := time.Since(wall).Seconds()
	src.Stop()
	var cs netmetrics.ClassifierStats
	for _, sw := range tb.Routers {
		cs.Merge(sw.Table().Stats())
	}
	for _, sw := range tb.Edges {
		cs.Merge(sw.Table().Stats())
	}
	if secs <= 0 {
		return 0, cs
	}
	return float64(tb.Sched.Executed()-before) / secs, cs
}

// writeJSON dumps the headline metrics of the run in a stable,
// machine-readable form (keys sorted by encoding/json), stamped with
// the machine's CPU provenance so perf numbers in BENCH_*.json are
// interpretable after the fact.
func writeJSON(path string, seed int64, elapsed time.Duration, metrics map[string]float64) error {
	report := struct {
		Seed       int64              `json:"seed"`
		ElapsedMS  float64            `json:"elapsed_ms"`
		NumCPU     int                `json:"num_cpu"`
		GOMAXPROCS int                `json:"gomaxprocs"`
		Metrics    map[string]float64 `json:"metrics"`
	}{seed, float64(elapsed.Milliseconds()), runtime.NumCPU(), runtime.GOMAXPROCS(0), metrics}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func f1(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }

// writeCSV writes rows to dir/name; a no-op when no -csv directory was
// given.
func writeCSV(dir, name string, rows [][]string) error {
	if dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}

// parallelMap runs fn over items with bounded concurrency, preserving
// order. Every simulation is self-contained and deterministic, so
// parallelism changes wall time only, never results. A scenario that
// panics fails the section with the first such error instead of
// printing as a zero.
func parallelMap[S, R any](workers int, items []S, fn func(S) R) ([]R, error) {
	out, errs := pool.Map(context.Background(), workers, len(items), func(i int) (R, error) {
		return fn(items[i]), nil
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%v: %w", items[i], err)
		}
	}
	return out, nil
}
