// Command netco-bench regenerates the paper's evaluation (§V): Table I
// and Figures 4–8, printing measured values side by side with the
// published ones.
//
// Usage:
//
//	netco-bench [-table1] [-fig4] [-fig5] [-fig6] [-fig7] [-fig8] [-all]
//	            [-scale] [-hybrid] [-churn] [-parallel n] [-full] [-quick] [-seed n]
//	            [-hybrid-arity k] [-hybrid-flows-per-host n] [-hybrid-monitored n]
//	            [-hybrid-promote-rho r] [-hybrid-build-budget-ms b]
//	            [-churn-arity k] [-churn-rate a] [-churn-workers n]
//	            [-cpuprofile f] [-memprofile f] [-json f]
//
// Without selection flags, -all is assumed. -full uses the paper's
// methodology (10 s runs, 10 per direction); -quick uses smoke-test
// durations. -cpuprofile/-memprofile write pprof profiles of the run;
// -json writes every headline metric to a machine-readable file (the
// BENCH_*.json snapshots in the repo root are produced this way).
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
	"netco/internal/runner"
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
		scale  = fs.Bool("scale", false, "extension: parallel-engine scaling benchmark (fat-tree cross-pod UDP, partition sweep; BENCH_5.json)")
		hybrid = fs.Bool("hybrid", false, "extension: hybrid fluid/packet traffic engine (1k-switch fluid fat tree, 100k+ flows, packet-exact combiner region; BENCH_6.json)")
		churn  = fs.Bool("churn", false, "extension: churn-scale flow lifecycle engine (arity-90 fluid fat tree, 1M+ lifecycle events per sim-second; BENCH_10.json)")
		impair = fs.Bool("impair", false, "extension: UDP delivery with the netem impairment pipeline (Gilbert-Elliott loss, duplication, corruption, reordering) on every trunk")

		impLoss    = fs.Float64("impair-loss", 1, "impair section: i.i.d. trunk loss percent")
		impGEp     = fs.Float64("impair-ge-p", 1, "impair section: Gilbert-Elliott good→bad probability, percent")
		impGEr     = fs.Float64("impair-ge-r", 25, "impair section: Gilbert-Elliott bad→good probability, percent")
		impDup     = fs.Float64("impair-dup", 0.5, "impair section: trunk duplication percent")
		impCorrupt = fs.Float64("impair-corrupt", 0.2, "impair section: trunk bit-corruption percent")
		impReoMS   = fs.Float64("impair-reorder-ms", 1, "impair section: reorder jitter in ms (25% of packets)")

		hybArity     = fs.Int("hybrid-arity", 0, "override the hybrid fat-tree arity (0 = scenario default; 90 with -hybrid-flows-per-host 6 is the BENCH_8 10k-switch/1M-flow point)")
		hybFlows     = fs.Int("hybrid-flows-per-host", 0, "override the hybrid flows-per-host fan-out (0 = scenario default)")
		hybMonitored = fs.Int("hybrid-monitored", 0, "override how many hybrid flows are monitored through the compare region (0 = scenario default)")
		hybRho       = fs.Float64("hybrid-promote-rho", 0, "bottleneck utilisation that promotes a hybrid fluid flow to packets (0 = promotion by region crossing only)")
		hybBudgetMS  = fs.Float64("hybrid-build-budget-ms", 0, "fail if the hybrid build (topo+wire+flows) exceeds this many milliseconds (0 = no ceiling; regression guard for make hybrid-scale-smoke)")

		churnArity   = fs.Int("churn-arity", 0, "override the churn fat-tree arity (0 = 90, the BENCH_10 point)")
		churnRate    = fs.Float64("churn-rate", 0, "override the churn arrival rate in flows per sim-second (0 = BENCH_10 default)")
		churnWorkers = fs.Int("churn-workers", 0, "override the churn parallel-settle worker count (0 = one per core; digest is checked against a serial run either way)")
		all          = fs.Bool("all", false, "reproduce everything")
		full         = fs.Bool("full", false, "paper-faithful durations (10s × 10 runs)")
		quick        = fs.Bool("quick", false, "smoke-test durations")
		seed         = fs.Int64("seed", 1, "simulation seed")
		serial       = fs.Bool("serial", false, "run scenarios sequentially (default: one worker per core)")
		para         = fs.Int("parallel", 0, "run each simulation on the parallel engine with this many partitions (0/1 = serial engine; results are bit-identical)")
		csvDir       = fs.String("csv", "", "also write each figure's data as CSV files into this directory")

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

	if !(*table1 || *fig4 || *fig5 || *fig6 || *fig7 || *fig8 || *arch || *ksweep || *dos || *scale || *hybrid || *churn || *impair) {
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
		results := parallelMap(workers, netco.AllScenarios, func(s netco.Scenario) netco.TCPResult {
			return netco.RunTCP(p, s)
		})
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
		results := parallelMap(workers, netco.AllScenarios, func(s netco.Scenario) netco.UDPMaxResult {
			return netco.RunUDPMax(p, s)
		})
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
		results := parallelMap(workers, netco.TableScenarios, func(s netco.Scenario) netco.PingScenarioResult {
			return netco.RunPing(p, s)
		})
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
		series8 := parallelMap(workers, netco.TableScenarios, func(s netco.Scenario) []netco.JitterPoint {
			return netco.RunJitter(p, s, nil)
		})
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
	if *scale {
		dur := 150 * time.Millisecond
		if *quick {
			dur = 50 * time.Millisecond
		}
		// Arity 8 is 12 co-location units: 8 pods + 4 core groups. -full
		// appends the arity-16 pass (1,024 hosts, about 6x the events per
		// epoch): the fabric on which the two workers pay, where arity 8
		// is the one on which running epochs inline does.
		type scalePass struct {
			arity int
			parts []int
		}
		passes := []scalePass{{8, []int{1, 2, 4, 8, 12}}}
		if *full {
			passes = append(passes, scalePass{16, []int{1, 2}})
		}
		cores := runtime.NumCPU()
		metrics["scale.cores"] = float64(cores)
		rows := [][]string{{"arity", "partitions", "events", "build_s", "run_s", "events_per_sec", "speedup", "epochs", "inline_frac", "handoffs", "imbalance"}}
		for _, pass := range passes {
			fmt.Fprintf(stdout, "== Extension: parallel-engine scaling (%d-ary fat tree, cross-pod UDP, %d core(s)) ==\n", pass.arity, cores)
			prefix := "scale."
			if pass.arity != 8 {
				prefix = fmt.Sprintf("scale.arity%d.", pass.arity)
			}
			var serialRate float64
			var serialDigest string
			for _, parts := range pass.parts {
				ps := p
				ps.Partitions = parts
				r := netco.RunScale(ps, pass.arity, dur)
				// Rate and speedup are of the run phase alone: the build
				// (rule install, mostly) is the same work at every partition
				// count and at arity 16 as long as the run.
				build, run := r.BuildWall.Seconds(), r.RunWall.Seconds()
				rate := float64(r.Events) / run
				if parts == 1 {
					serialRate, serialDigest = rate, r.Digest
				} else if r.Digest != serialDigest {
					return fmt.Errorf("scale: arity=%d partitions=%d diverged from serial digest", pass.arity, parts)
				}
				speedup := rate / serialRate
				fmt.Fprintf(stdout, "  partitions=%-2d  %9d events  build %5.2fs  run %6.2fs  %12.0f ev/s  speedup %.2fx\n",
					r.Partitions, r.Events, build, run, rate, speedup)
				key := fmt.Sprintf("%spartitions%d", prefix, parts)
				metrics[key+".events_per_sec"] = rate
				metrics[key+".speedup"] = speedup
				metrics[key+".build_s"] = build
				metrics[key+".run_s"] = run
				row := []string{strconv.Itoa(pass.arity), strconv.Itoa(parts), strconv.FormatUint(r.Events, 10),
					fmt.Sprintf("%.3f", build), fmt.Sprintf("%.3f", run), fmt.Sprintf("%.0f", rate), fmt.Sprintf("%.3f", speedup)}
				if st := r.Engine; st.Epochs > 0 {
					// The engine's own counters. They follow the wall
					// clock (which way an epoch ran is a measured choice),
					// so they are printed here and nowhere a digest looks.
					inlineFrac, imbalance := st.InlineFrac(), st.Imbalance()
					fmt.Fprintf(stdout, "                 %9d epochs, %5.1f%% inline, %d change-over(s), %d hand-offs, imbalance %.2f\n",
						st.Epochs, 100*inlineFrac, st.Changeovers, st.Handoffs, imbalance)
					metrics[key+".epochs"] = float64(st.Epochs)
					metrics[key+".inline_frac"] = inlineFrac
					metrics[key+".handoffs"] = float64(st.Handoffs)
					metrics[key+".imbalance"] = imbalance
					row = append(row, strconv.FormatUint(st.Epochs, 10), fmt.Sprintf("%.3f", inlineFrac),
						strconv.FormatUint(st.Handoffs, 10), fmt.Sprintf("%.3f", imbalance))
				} else {
					row = append(row, "", "", "", "")
				}
				rows = append(rows, row)
			}
			fmt.Fprintln(stdout, "  digests bit-identical across all partition counts")
		}
		if err := writeCSV(*csvDir, "scale.csv", rows); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	if *hybrid {
		// BENCH_6 workload: a 30-ary fluid fat tree (1125 switches,
		// 6750 hosts, 101250 flows) with 8 monitored flows expanded to
		// real datagrams through the packet-exact combiner region. The
		// 8×15 Mbit/s region load sits at ~46% of the compare stage's
		// copy budget (k=3 × 15 µs per copy), so the region stays
		// line-rate while the fabric is pure rate processes.
		hp := netco.DefaultHybridParams()
		hp.Arity = 30
		hp.FlowsPerHost = 15
		hp.FlowDemand = 15e6
		hp.CrossFlows = 8
		hp.Duration = time.Second
		hp.Epoch = 10 * time.Millisecond
		hp.SwapAt = 500 * time.Millisecond
		if *quick {
			hp = netco.DefaultHybridParams()
		}
		// Sizing overrides: defaults (0) leave the BENCH_6 scenario —
		// and its digest — untouched.
		if *hybArity > 0 {
			hp.Arity = *hybArity
		}
		if *hybFlows > 0 {
			hp.FlowsPerHost = *hybFlows
		}
		if *hybMonitored > 0 {
			hp.CrossFlows = *hybMonitored
		}
		if *hybRho > 0 {
			hp.PromoteRho = *hybRho
		}
		fmt.Fprintf(stdout, "== Extension: hybrid fluid/packet engine (%d-ary fat tree) ==\n", hp.Arity)
		wall := time.Now()
		r := netco.RunHybrid(p, hp)
		secs := time.Since(wall).Seconds()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		peakHeapMB := float64(mem.HeapSys-mem.HeapReleased) / (1 << 20)
		r2 := netco.RunHybrid(p, hp)
		if r2.Digest != r.Digest {
			return fmt.Errorf("hybrid: digest diverged across identical runs")
		}
		buildMS := r.BuildTopoMS + r.BuildWireMS + r.BuildFlowsMS
		if *hybBudgetMS > 0 && buildMS > *hybBudgetMS {
			return fmt.Errorf("hybrid: build took %.0f ms (topo %.0f + wire %.0f + flows %.0f), over the %.0f ms budget",
				buildMS, r.BuildTopoMS, r.BuildWireMS, r.BuildFlowsMS, *hybBudgetMS)
		}
		fmt.Fprintf(stdout, "  %d switches, %d hosts, %d flows (%d through the compare region), region ball %d nodes\n",
			r.Switches, r.Hosts, r.Flows, r.CrossFlows, r.RegionNodes)
		fmt.Fprintf(stdout, "  build %.0f ms (topo %.0f, wire %.0f, flows %.0f); peak heap %.0f MiB\n",
			buildMS, r.BuildTopoMS, r.BuildWireMS, r.BuildFlowsMS, peakHeapMB)
		fmt.Fprintf(stdout, "  %d events, %d settles, %d promotions / %d demotions (%d by congestion) in %.2fs wall\n",
			r.Events, r.Settles, r.Promotions, r.Demotions, r.CongestionPromotions, secs)
		fmt.Fprintf(stdout, "  fluid goodput %.1f Mbit/s aggregate; projected pure-packet events %.2e → ratio %.0fx\n",
			r.FluidDeliveredBits/hp.Duration.Seconds()/1e6, r.ProjectedPacketEvents, r.EventRatio)
		fmt.Fprintln(stdout, "  digest bit-identical across repeated runs")
		metrics["hybrid.arity"] = float64(r.Arity)
		metrics["hybrid.switches"] = float64(r.Switches)
		metrics["hybrid.hosts"] = float64(r.Hosts)
		metrics["hybrid.flows"] = float64(r.Flows)
		metrics["hybrid.cross_flows"] = float64(r.CrossFlows)
		metrics["hybrid.region_nodes"] = float64(r.RegionNodes)
		metrics["hybrid.events"] = float64(r.Events)
		metrics["hybrid.settles"] = float64(r.Settles)
		metrics["hybrid.promotions"] = float64(r.Promotions)
		metrics["hybrid.demotions"] = float64(r.Demotions)
		metrics["hybrid.congestion_promotions"] = float64(r.CongestionPromotions)
		metrics["hybrid.build_topo_ms"] = r.BuildTopoMS
		metrics["hybrid.build_wire_ms"] = r.BuildWireMS
		metrics["hybrid.build_flows_ms"] = r.BuildFlowsMS
		metrics["hybrid.peak_heap_mb"] = peakHeapMB
		metrics["hybrid.fluid_goodput_mbps"] = r.FluidDeliveredBits / hp.Duration.Seconds() / 1e6
		metrics["hybrid.projected_packet_events"] = r.ProjectedPacketEvents
		metrics["hybrid.event_ratio"] = r.EventRatio
		metrics["hybrid.wall_s"] = secs
		rows := [][]string{
			{"switches", "hosts", "flows", "cross_flows", "events", "settles", "event_ratio", "wall_s"},
			{strconv.Itoa(r.Switches), strconv.Itoa(r.Hosts), strconv.Itoa(r.Flows),
				strconv.Itoa(r.CrossFlows), strconv.FormatUint(r.Events, 10),
				strconv.FormatUint(r.Settles, 10), fmt.Sprintf("%.1f", r.EventRatio),
				fmt.Sprintf("%.3f", secs)},
		}
		if err := writeCSV(*csvDir, "hybrid.csv", rows); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	if *churn {
		// BENCH_10 workload: the arity-90 fat tree (10125 switches,
		// 182250 hosts) under an open M/G/∞ lifecycle at 600k flow
		// arrivals per sim-second. Mean flow lifetime is 8·size/demand
		// = 20 ms, so steady state holds ~12k concurrent flows while
		// arrivals+departures together clear 1M lifecycle events per
		// simulated second — the tentpole target. The digest is checked
		// against a serial-settle run, so the headline numbers come
		// from a configuration whose determinism was just proven.
		hp := netco.DefaultHybridParams()
		hp.Arity = 90
		hp.FlowDemand = 15e6
		hp.Duration = time.Second
		hp.Epoch = 10 * time.Millisecond
		hp.ChurnArrivals = 600_000
		hp.ChurnMeanBytes = 37_500
		hp.ChurnParetoFrac = 0.3
		hp.ChurnCrossFrac = 0.02
		if *quick {
			hp.Arity = 10
			hp.Duration = 250 * time.Millisecond
			hp.ChurnArrivals = 40_000
		}
		if *churnArity > 0 {
			hp.Arity = *churnArity
		}
		if *churnRate > 0 {
			hp.ChurnArrivals = *churnRate
		}
		workers := runtime.GOMAXPROCS(0)
		if *churnWorkers > 0 {
			workers = *churnWorkers
		}
		fmt.Fprintf(stdout, "== Extension: churn-scale flow lifecycle (%d-ary fat tree, %.0f arrivals/sim-s) ==\n",
			hp.Arity, hp.ChurnArrivals)
		hp.SettleWorkers = 1
		serialRun := netco.RunChurn(p, hp)
		hp.SettleWorkers = workers
		wall := time.Now()
		r := netco.RunChurn(p, hp)
		secs := time.Since(wall).Seconds()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		peakHeapMB := float64(mem.HeapSys-mem.HeapReleased) / (1 << 20)
		if r.Digest != serialRun.Digest {
			return fmt.Errorf("churn: digest diverged between serial and %d-worker settle", workers)
		}
		fmt.Fprintf(stdout, "  %d switches, %d hosts; build %.0f ms (topo %.0f, wire %.0f)\n",
			r.Switches, r.Hosts, r.BuildTopoMS+r.BuildWireMS, r.BuildTopoMS, r.BuildWireMS)
		fmt.Fprintf(stdout, "  %d arrivals, %d departures, peak %d live, %d recycled, %d wheel expiries\n",
			r.Arrivals, r.Departures, r.PeakLive, r.Recycled, r.WheelExpired)
		fmt.Fprintf(stdout, "  %d settles over %d components (%d workers); %.3g lifecycle events/sim-s\n",
			r.Settles, r.ComponentsSolved, workers, r.LifecycleEventsPerSimSec)
		fmt.Fprintf(stdout, "  goodput %.1f Mbit/s aggregate; %.2fs wall, peak heap %.0f MiB\n",
			r.DeliveredBits/hp.Duration.Seconds()/1e6, secs, peakHeapMB)
		fmt.Fprintf(stdout, "  digest bit-identical: serial vs %d-worker settle\n", workers)
		metrics["churn.arity"] = float64(r.Arity)
		metrics["churn.switches"] = float64(r.Switches)
		metrics["churn.hosts"] = float64(r.Hosts)
		metrics["churn.arrivals"] = float64(r.Arrivals)
		metrics["churn.departures"] = float64(r.Departures)
		metrics["churn.peak_live"] = float64(r.PeakLive)
		metrics["churn.recycled_flows"] = float64(r.Recycled)
		metrics["churn.wheel_expired"] = float64(r.WheelExpired)
		metrics["churn.events"] = float64(r.Events)
		metrics["churn.settles"] = float64(r.Settles)
		metrics["churn.settle_components"] = float64(r.ComponentsSolved)
		metrics["churn.settle_workers"] = float64(workers)
		metrics["churn.arrivals_per_sim_s"] = r.ArrivalsPerSimSec
		metrics["churn.lifecycle_events_per_sim_s"] = r.LifecycleEventsPerSimSec
		metrics["churn.goodput_mbps"] = r.DeliveredBits / hp.Duration.Seconds() / 1e6
		metrics["churn.build_topo_ms"] = r.BuildTopoMS
		metrics["churn.build_wire_ms"] = r.BuildWireMS
		metrics["churn.wall_s"] = secs
		metrics["churn.peak_heap_mb"] = peakHeapMB
		rows := [][]string{
			{"switches", "hosts", "arrivals", "departures", "peak_live", "recycled",
				"settles", "components", "lifecycle_events_per_sim_s", "wall_s", "peak_heap_mb"},
			{strconv.Itoa(r.Switches), strconv.Itoa(r.Hosts),
				strconv.FormatUint(r.Arrivals, 10), strconv.FormatUint(r.Departures, 10),
				strconv.Itoa(r.PeakLive), strconv.FormatUint(r.Recycled, 10),
				strconv.FormatUint(r.Settles, 10), strconv.FormatUint(r.ComponentsSolved, 10),
				fmt.Sprintf("%.0f", r.LifecycleEventsPerSimSec),
				fmt.Sprintf("%.3f", secs), fmt.Sprintf("%.0f", peakHeapMB)},
		}
		if err := writeCSV(*csvDir, "churn.csv", rows); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	if *impair {
		ip := p
		ip.Impair = netco.ImpairParams{
			LossPct:       *impLoss,
			GE:            netco.GilbertElliott(*impGEp/100, *impGEr/100),
			DupPct:        *impDup,
			CorruptPct:    *impCorrupt,
			ReorderPct:    25,
			ReorderJitter: time.Duration(*impReoMS * float64(time.Millisecond)),
		}
		fmt.Fprintf(stdout, "== Extension: trunk impairments (loss %.2g%%, GE %.2g:%.2g%%, dup %.2g%%, corrupt %.2g%%, reorder %.2gms) ==\n",
			*impLoss, *impGEp, *impGEr, *impDup, *impCorrupt, *impReoMS)
		results := parallelMap(workers, netco.TableScenarios, func(s netco.Scenario) netco.ImpairResult {
			return netco.RunImpair(ip, s)
		})
		rows := [][]string{{"scenario", "delivered_frac", "goodput_mbps", "impair_drops", "corrupted", "duplicated", "reordered"}}
		for _, r := range results {
			fmt.Fprintf(stdout, "  %-10s delivered %6.3f  goodput %6.1f Mbit/s  (wire: %d lost, %d corrupted, %d duplicated, %d reordered)\n",
				r.Scenario, r.DeliveredFrac, r.GoodputMbps,
				r.Counters.ImpairDrops, r.Counters.Corrupted, r.Counters.Duplicated, r.Counters.Reordered)
			key := "impair." + r.Scenario.String()
			metrics[key+".delivered_frac"] = r.DeliveredFrac
			metrics[key+".goodput_mbps"] = r.GoodputMbps
			metrics[key+".impair_drops"] = float64(r.Counters.ImpairDrops)
			metrics[key+".corrupted"] = float64(r.Counters.Corrupted)
			metrics[key+".duplicated"] = float64(r.Counters.Duplicated)
			metrics[key+".reordered"] = float64(r.Counters.Reordered)
			rows = append(rows, []string{r.Scenario.String(), fmt.Sprintf("%.4f", r.DeliveredFrac),
				f1(r.GoodputMbps), strconv.FormatUint(r.Counters.ImpairDrops, 10),
				strconv.FormatUint(r.Counters.Corrupted, 10), strconv.FormatUint(r.Counters.Duplicated, 10),
				strconv.FormatUint(r.Counters.Reordered, 10)})
		}
		if err := writeCSV(*csvDir, "impair.csv", rows); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	if *all || *table1 {
		fmt.Fprintln(stdout, "== Table I: average measurement results (measured vs paper) ==")
		rows := parallelMap(workers, netco.TableScenarios, func(s netco.Scenario) netco.Table1Row {
			return netco.Table1Row{
				Scenario: s,
				TCPMbps:  netco.RunTCP(p, s).Mbps,
				UDPMbps:  netco.RunUDPMax(p, s).Mbps,
				AvgRTT:   netco.RunPing(p, s).AvgRTT,
			}
		})
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
// order — a thin wrapper over runner.Map. Every simulation is
// self-contained and deterministic, so parallelism changes wall time
// only, never results.
func parallelMap[S, R any](workers int, items []S, fn func(S) R) []R {
	out, _ := runner.Map(context.Background(), workers, len(items), func(i int) (R, error) {
		return fn(items[i]), nil
	})
	return out
}
