package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// One driver run: rounds of one workload repeat until the wall budget
// is spent, each a full scenario, and the run reports the median over
// its rounds of each metric (see overRounds).

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance records the machine a run happened on.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
}

func readProvenance() provenance {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     strings.TrimSpace(string(kernel)),
	}
}

// roundTimes is one main-variant round's host-side timing as the clock
// read it, and the host factor the reported values are divided by.
type roundTimes struct {
	SetupS     float64 `json:"setup_s"`
	WindowS    float64 `json:"window_s"`
	HostFactor float64 `json:"host_factor"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
}

// detail is the line before the result line; the full-mode parent reads
// it, the driver ignores it.
type detail struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Traced     bool               `json:"traced"`
	Digest     string             `json:"digest"`
	Rounds     []roundTimes       `json:"rounds"`
	Counts     map[string]float64 `json:"counts"`
	Errors     []string           `json:"errors,omitempty"`
	Provenance provenance         `json:"provenance"`
}

const detailPrefix = "#detail "

// calibAround is how many calibration passes bracket a round on each
// side; packet rounds add one per window slice.
const calibAround = 4

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// overRounds is how a run folds its rounds: the median. Rounds of one
// seed do identical work, so they differ only by what the host did to
// them; the median ignores the disturbed ones on either side.
func overRounds(rs []round, pick func(round) float64) float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = pick(r)
	}
	return median(v)
}

// lowestPeakRSS is the one metric not folded by the median. A round's
// high-water mark is its live data plus whatever garbage the concurrent
// collector had not yet freed at that instant; the second part falls
// into two or three modes from round to round and a median flips
// between them, while the lowest mark repeats within a per cent.
func lowestPeakRSS(rs []round) float64 {
	lo := math.Inf(1)
	for _, r := range rs {
		lo = math.Min(lo, r.peakRSS)
	}
	return lo
}

// The end-to-end times of a round, at the reference box's speed.
func normWindow(r round) float64 { return r.windowS / r.factor }
func normSetup(r round) float64  { return r.setupS / r.factor }

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// resident high-water mark, so each round's peak is its own, as in a
// fresh process. Where /proc/self/clear_refs is not writable the mark
// simply keeps covering the whole process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB reads the process's resident high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// variant is which form of the workload a round runs.
type variant int

const (
	vMain variant = iota
	vRef
	vTraced
)

// runResult is one run, before it is cut down to the result line.
type runResult struct {
	line   resultLine
	detail detail
	// produced lists the per-layer values some code path computed for
	// this workload; declared metrics outside it are emitted as 0.
	// schema_test.go checks that every declared metric is produced by at
	// least one workload and nothing undeclared is.
	produced []string
	// traceFile is where a traced run wrote its spans.
	traceFile string
}

// runOpts are one run's arguments.
type runOpts struct {
	seed    int64
	seconds float64
	traced  bool
	outDir  string
	tiny    bool // test-size scenarios (tests only)
}

// runWorkload executes one driver run. With traced set it cycles the
// reference, plain and traced variants so the speed-ups and the trace
// overhead compare rounds of the same process; otherwise the reference
// (if the workload has one) runs once for its digest and plain rounds
// fill the budget.
func runWorkload(w *workload, o runOpts) runResult {
	seed, seconds, traced := o.seed, o.seconds, o.traced
	rec := newSpanRecorder()
	start := time.Now()
	// The plain run needs the reference once, for its digest; the traced
	// run cycles all variants so their times come from one process.
	var pre, cycle []variant
	if w.hasRef {
		pre = []variant{vRef}
	}
	cycle = []variant{vMain}
	minRounds := len(pre) + 3
	if traced {
		cycle = append(pre, vMain, vTraced)
		pre = nil
		minRounds = 2 * len(cycle)
	}

	byVariant := map[variant][]round{}
	var all []round
	var lastTraced round
	for i := 0; i < minRounds || time.Since(start).Seconds() < seconds; i++ {
		v := cycle[max(i-len(pre), 0)%len(cycle)]
		if i < len(pre) {
			v = pre[i]
		}
		resetPeakRSS() // the round starts from a collected, returned heap
		var before round
		for k := 0; k < calibAround; k++ {
			before.calibrate()
		}
		rec.begin([]string{"round.main", "round.ref", "round.traced"}[v])
		r := w.run(roundCfg{seed: seed, tiny: o.tiny, traced: v == vTraced, ref: v == vRef, rec: rec})
		rec.end()
		for k := 0; k < calibAround; k++ {
			r.calibrate()
		}
		r.errs = append(r.errs, before.errs...)
		r.factor = hostFactor(append(before.calS, r.calS...))
		rss, err := peakRSSMB()
		if err != nil {
			r.failf("%v", err)
		}
		r.peakRSS = rss
		if v == vTraced {
			lastTraced = r
		}
		r.pn, r.frames = nil, nil
		byVariant[v] = append(byVariant[v], r)
		all = append(all, r)
	}

	res := runResult{detail: detail{Workload: w.name, Seed: seed, Traced: traced, Provenance: readProvenance()}}
	failed := 0
	first := all[0]
	for i, r := range all {
		errs := r.errs
		if r.digest != first.digest {
			errs = append(errs, fmt.Sprintf("digest %s differs from the run's first round's %s", digestHash(r.digest), digestHash(first.digest)))
		}
		if len(errs) > 0 {
			failed++
			for _, e := range errs {
				res.detail.Errors = append(res.detail.Errors, fmt.Sprintf("round %d: %s", i, e))
			}
		}
	}
	mains := byVariant[vMain]
	res.detail.Digest = digestHash(first.digest)
	res.detail.Counts = publicCounts(mains[0].counts)
	for _, r := range mains {
		res.detail.Rounds = append(res.detail.Rounds, roundTimes{r.setupS, r.windowS, r.factor, r.peakRSS})
	}
	res.line = resultLine{Correct: failed == 0, Attempted: len(all), Failed: failed, Metrics: map[string]metric{}}

	if !traced {
		vals := map[string]float64{
			wallM:  overRounds(mains, normWindow) / mains[0].simS,
			setupM: overRounds(mains, normSetup),
			rssM:   lowestPeakRSS(mains),
		}
		for _, m := range e2eMetrics {
			res.line.Metrics[m.Name] = metric{vals[m.Name], m.Unit}
		}
		return res
	}

	// Per-layer values: exact counts from a plain round, host-side
	// medians over the plain and traced rounds, then the probes.
	vals := map[string]float64{}
	for k, v := range res.detail.Counts {
		vals[k] = v
	}
	hostKeys := map[string][]float64{}
	for _, r := range append(append([]round(nil), mains...), byVariant[vTraced]...) {
		for k, v := range r.host {
			hostKeys[k] = append(hostKeys[k], v)
		}
	}
	for k, v := range hostKeys {
		vals[k] = median(v)
	}
	// Ratios between variants compare normalised windows; counts times
	// probe costs are set against the window as the clock read it, since
	// the probes are too.
	winMain := overRounds(mains, func(r round) float64 { return r.windowS })
	vals["runtime.host_factor"] = overRounds(all, func(r round) float64 { return r.factor })
	vals["sim.events_per_wall_s"] = vals["sim.events_per_sim_s"] * mains[0].simS / winMain
	vals["trace.overhead_frac"] = overRounds(byVariant[vTraced], normWindow)/overRounds(mains, normWindow) - 1
	if refs := byVariant[vRef]; len(refs) > 0 {
		speedup := overRounds(refs, normWindow) / overRounds(mains, normWindow)
		cpu := func(rs []round) float64 { return overRounds(rs, func(r round) float64 { return r.cpuS }) }
		switch w.name {
		case "fattree_udp_par2":
			vals["sim.par.speedup_p2"] = speedup
			vals["sim.par.cpu_overhead_frac"] = cpu(mains)/cpu(refs) - 1
		case "churn_fluid":
			vals["traffic.fluid.settle_speedup_w2"] = speedup
		}
	}
	vals["traffic.sim_out_changed"] = simOutChanged(w.name, seed, res.detail.Digest)

	perr := runProbes(rec, w, lastTraced, mains[0].counts, winMain, vals)
	if perr != nil {
		res.line.Correct = false
		res.detail.Errors = append(res.detail.Errors, perr.Error())
	}
	for k := range vals {
		res.produced = append(res.produced, k)
	}
	for _, m := range layerMetrics {
		v := vals[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.line.Metrics[m.Name] = metric{v, m.Unit}
	}
	tf := traceFile{Workload: w.name, Seed: seed, Provenance: res.detail.Provenance, Spans: rec.spans,
		Window: lastTraced.host, Metrics: res.line.Metrics}
	res.traceFile = filepath.Join(o.outDir, "trace_"+w.name+".json")
	if err := writeTrace(res.traceFile, tf); err != nil {
		res.line.Correct = false
		res.detail.Errors = append(res.detail.Errors, err.Error())
	}
	return res
}

// publicCounts drops the probes' private multipliers.
func publicCounts(c map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range c {
		if !strings.HasPrefix(k, "_") {
			out[k] = v
		}
	}
	return out
}

// runProbes replays the traced round's capture through each layer and
// turns probe costs times window counts into estimated shares of the
// window. A layer's share uses its self time: the inclusive probe time
// minus the scheduler events and inner layers the probe also ran, which
// are charged where they belong.
func runProbes(rec *spanRecorder, w *workload, tr round, counts map[string]float64, windowS float64, vals map[string]float64) error {
	frames := tr.frames
	fluid := strings.HasSuffix(w.name, "_fluid")
	share := func(count, ns float64) float64 { return count * math.Max(ns, 0) / 1e9 / windowS }
	events := counts["sim.events_per_sim_s"] * tr.simS

	var fire cost
	rec.timed("probe.sim", func() {
		fire = probeSimFire(tr.live)
		vals["sim.at_fire_ns"], vals["sim.at_fire_allocs"] = fire.ns, fire.allocs
		vals["sim.timer_stop_ns"] = probeTimerStop(tr.live).ns
	})
	shares := map[string]float64{"sim": share(events, fire.ns)}

	if fluid {
		rec.timed("probe.sim.wheel", func() {
			c := probeWheel()
			vals["sim.wheel.arm_fire_ns"] = c.ns
			shares["sim.wheel"] = share(counts["sim.wheel.expired"], c.ns)
		})
		rec.timed("probe.traffic.fluid", func() {
			compSize, workers := 2, 1
			if solved := counts["traffic.fluid.components_solved"]; solved > 0 {
				compSize = int(math.Round(counts["traffic.fluid.peak_live"] * counts["traffic.fluid.settles"] / solved))
				workers = 2
			}
			fc := probeFluid(compSize, workers)
			vals["traffic.fluid.settle_ns_per_component"] = fc.settlePerComponent.ns
			vals["traffic.fluid.start_stop_ns"] = fc.startStop.ns
			vals["traffic.fluid.churn_epoch_allocs"] = fc.epochAllocs
			vals["traffic.fluid.bulk_settle_ns_per_flow"] = fc.bulkPerFlow.ns
			if w.name == "churn_fluid" {
				shares["traffic.fluid"] = share(counts["traffic.fluid.components_solved"], fc.settlePerComponent.ns) +
					share(counts["traffic.fluid.flows"], fc.startStop.ns)
			} else {
				shares["traffic.fluid"] = share(counts["traffic.fluid.flows"]*counts["traffic.fluid.settles"], fc.bulkPerFlow.ns)
			}
		})
	} else {
		var err error
		var link, lookup, pipe cost
		var pc packetCosts
		var cc coreCosts
		step := func(name string, fn func() error) {
			rec.timed(name, func() {
				if e := fn(); e != nil && err == nil {
					err = fmt.Errorf("%s: %w", name, e)
				}
			})
		}
		step("probe.netem", func() (e error) { link, e = probeLinkSend(tr.pn.trunk, frames); return })
		step("probe.packet", func() (e error) { pc, e = probePacket(frames); return })
		step("probe.openflow", func() (e error) { lookup, e = probeLookup(frames); return })
		step("probe.switching", func() (e error) { pipe, e = probePipeline(tr.pn.trunk, frames); return })
		step("probe.core", func() (e error) { cc, e = probeCore(frames); return })
		if err != nil {
			return err
		}
		vals["netem.link_send_ns"], vals["netem.link_send_allocs"] = link.ns, link.allocs
		vals["packet.marshal_ns"], vals["packet.marshal_allocs"] = pc.marshal.ns, pc.marshal.allocs
		vals["packet.unmarshal_ns"], vals["packet.headerkey_ns"] = pc.unmarshal.ns, pc.headerKey.ns
		vals["openflow.lookup_ns"], vals["openflow.lookup_allocs"] = lookup.ns, lookup.allocs
		vals["switching.pipeline_ns"], vals["switching.pipeline_allocs"] = pipe.ns, pipe.allocs
		vals["core.ingest_ns_per_copy"], vals["core.ingest_allocs"] = cc.ingestPerCopy.ns, cc.ingestPerCopy.allocs
		vals["core.expire_ns"] = cc.expirePerEntry.ns

		// The frame probes run on near-empty heaps, so their scheduler
		// part is taken out at the empty-heap event cost; sim's own share
		// above uses the cost at the workload's heap depth.
		ev := probeSimFire(0).ns
		shares["netem"] = share(counts["netem.link_tx_packets"], link.ns-link.events*ev)
		// Lookup hashes the headers itself (packet.HeaderKey); the edges
		// marshal every copy toward the compare and parse every release.
		shares["packet"] = share(counts["openflow.lookups"], pc.headerKey.ns) +
			share(counts["_edge.to_compare"], pc.marshal.ns) + share(counts["_edge.from_compare"], pc.unmarshal.ns)
		shares["openflow"] = share(counts["openflow.lookups"], lookup.ns-pc.headerKey.ns)
		shares["switching"] = share(counts["switching.rx_packets"], pipe.ns-lookup.ns-link.ns-(pipe.events-link.events)*ev)
		shares["core"] = share(counts["core.ingested"], cc.ingestPerCopy.ns) + share(counts["core.released"], cc.expirePerEntry.ns)
	}

	unattributed := 1.0
	for layer, s := range shares {
		vals[layer+".est_share"] = s
		unattributed -= s
	}
	vals["trace.unattributed_share"] = unattributed
	return nil
}

// baselineFile is bench/baseline.json: what the committed baseline
// measured, kept beside BENCHMARK.json because that file may hold only
// the keys the driver reads.
type baselineFile struct {
	Note       string                        `json:"note"`
	NotCovered []string                      `json:"not_covered"`
	Provenance provenance                    `json:"provenance"`
	RunSeconds float64                       `json:"run_seconds"`
	Seed       int64                         `json:"seed"`
	Digests    map[string]map[string]string  `json:"digests"` // workload -> seed -> digest
	EndToEnd   map[string]map[string]summary `json:"end_to_end"`
	PerLayer   map[string]map[string]float64 `json:"per_layer"`
	Moves      map[string]movesEntry         `json:"moves"`
	Noise      []noiseRow                    `json:"noise,omitempty"`
}

type movesEntry struct {
	Moves string `json:"moves"`
	On    string `json:"on"`
}

const baselinePath = "bench/baseline.json"

func readBaseline(path string) (*baselineFile, error) {
	b, err := os.ReadFile(filepath.FromSlash(path))
	if err != nil {
		return nil, err
	}
	var bf baselineFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// simOutChanged compares a digest with the committed baseline's: 0 same,
// 1 changed, -1 when the baseline holds no digest for this seed.
func simOutChanged(workload string, seed int64, digest string) float64 {
	bf, err := readBaseline(baselinePath)
	if err != nil {
		return -1
	}
	want, ok := bf.Digests[workload][strconv.FormatInt(seed, 10)]
	switch {
	case !ok:
		return -1
	case want == digest:
		return 0
	}
	return 1
}
