package experiment

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"time"

	"netco/internal/metrics"
	"netco/internal/netem"
)

// Kind selects a row of the registry below: one schedulable experiment
// unit. Each is a pure function of (Params, Sizing, Scenario, seed): it
// builds a fresh testbed — its own scheduler, pools and engines — runs to
// completion, and returns a flat Result. Nothing is shared between
// invocations, so any number may run concurrently on separate goroutines.
type Kind int

// The built-in kinds, in table order.
const (
	KindTCP       Kind = iota + 1 // Fig. 4
	KindUDP                       // Fig. 5
	KindLoad                      // Fig. 6
	KindPing                      // Fig. 7
	KindJitter                    // Fig. 8
	KindKSweep                    // redundancy sweep k = 1..7 (RunKSweep)
	KindDoS                       // §II DoS attacks against the §IV defences (RunDoS)
	KindHybrid                    // fluid fat tree + packet-exact combiner region (RunHybrid)
	KindChaos                     // availability under lifecycle churn (RunChaos)
	KindImpair                    // UDP delivery through the trunk impairment pipeline (RunImpair)
	KindChurn                     // open flow arrival/departure workload (RunChurn)
	KindScale                     // cross-pod UDP over a packet fat tree (RunScale)
	KindCaseStudy                 // §VI datacenter routing attack in three acts (RunCaseStudy)
	KindVirtual                   // §VII virtualized combiner over disjoint paths (RunVirtual)
)

// Row is everything the repo knows about one kind. Kind.String,
// ParseKind, AllKinds, Run, netco-sweep's flags, help and console
// headline, and the determinism matrix are all derived from the table of
// rows; adding a kind is one entry (or, in a test, one Register call).
type Row struct {
	Name string
	// Doc is one clause for the CLI's kind list.
	Doc string
	// Run executes the unit; p.Seed is already the run's seed. The
	// caller stamps Kind, Scenario and Seed on the Result.
	Run func(p Params, sz Sizing, s Scenario) Result
	// Axes are the sweep-grid and sizing axes the kind owns. An axis
	// edits Params or Sizing, so it applies to every kind in the grid
	// (TCP goodput under -loss, chaos under -dup-pct, ...).
	Axes []*Axis
	// Exec are the execution axes — settings that change how a run
	// executes and must never change its Result. Every row is
	// additionally invariant to the sweep's worker count, to GOMAXPROCS
	// and to being run twice; TestDeterminismMatrix walks all of them.
	Exec []*Axis
	// Headline picks the metrics netco-sweep prints per run.
	Headline []string
	// Scenarios are the scenarios the kind is defined on; nil means any.
	// A grid skips the other (kind, scenario) pairs.
	Scenarios []Scenario
	// Paper is the published value of Headline[0] per scenario, for the
	// scenarios the paper reports; the report prints it beside the
	// measured one.
	Paper map[Scenario]float64
}

// Sizing is how the fat-tree rows (hybrid, churn, scale) are sized. The
// zero value is each row's sweep unit: the 4-ary smoke fabric.
type Sizing struct {
	// Arity is the fat-tree k. Set, it also selects the at-scale
	// calibration EXPERIMENTS.md records (15 Mbit/s flows, 10 ms epochs,
	// 8 monitored flows, mid-run swap; 600k arrivals/s of 37.5 kB flows,
	// 2 % cross-pod) in place of the smoke one.
	Arity int
	// FlowsPerHost is the hybrid fan-out; ArrivalRate the churn arrivals
	// per simulated second.
	FlowsPerHost int
	ArrivalRate  float64
	// SettleWorkers parallelises the fluid allocator's settle — an
	// execution axis: results are bit-identical at any count.
	SettleWorkers int
}

// fluid expands the sizing into the hybrid/churn engine parameters for a
// window of p.UDPDuration.
func (sz Sizing) fluid(p Params) HybridParams {
	hp := DefaultHybridParams()
	hp.Duration = p.UDPDuration
	if sz.Arity > 0 {
		hp.Arity, hp.FlowsPerHost, hp.CrossFlows = sz.Arity, 15, 8
		hp.FlowDemand, hp.Epoch, hp.SwapAt = 15e6, 10*time.Millisecond, hp.Duration/2
		hp.ChurnArrivals, hp.ChurnMeanBytes, hp.ChurnCrossFrac = 600_000, 37_500, 0.02
	}
	if sz.FlowsPerHost > 0 {
		hp.FlowsPerHost = sz.FlowsPerHost
	}
	if sz.ArrivalRate > 0 {
		hp.ChurnArrivals = sz.ArrivalRate
	}
	hp.SettleWorkers = sz.SettleWorkers
	return hp
}

// Axis is one CLI flag that edits a run's inputs. A grid axis takes a
// comma-separated list and crosses one tagged variant per value into the
// sweep; a Scalar axis takes one value, applies it to every variant and
// leaves group names — and so artifacts — alone.
type Axis struct {
	Flag, Usage string
	Scalar      bool
	// Default is a scalar axis's value when its flag is absent ("" = none).
	Default string
	// Probe lists the values the determinism matrix runs the owning rows
	// at: one non-trivial point of a grid axis, or the settings of an
	// execution axis that must all give the same bytes.
	Probe []string
	parse func(tok string) (tag string, edit Edit, err error)
}

// Edit applies one axis value to a run's inputs.
type Edit func(p *Params, sz *Sizing)

// Parse validates one value of the axis — at flag time, so nothing the
// engines would choke on (non-finite numbers, percents outside 0..100,
// fractional counts) reaches a run — and returns its variant tag and edit.
func (a *Axis) Parse(tok string) (tag string, edit Edit, err error) {
	tok = strings.TrimSpace(tok)
	if tag, edit, err = a.parse(tok); err != nil {
		return "", nil, fmt.Errorf("bad -%s value %q (want %v)", a.Flag, tok, err)
	}
	return tag, edit, nil
}

// Value ranges of the numeric axes. Written as positive conditions so
// NaN fails every one; the 1e9 ceiling keeps ms→Duration conversions and
// int casts in range.
var (
	positive = valueRange{"a number > 0", func(v float64) bool { return v > 0 && v <= 1e9 }}
	nonNeg   = valueRange{"a number >= 0", func(v float64) bool { return v >= 0 && v <= 1e9 }}
	percent  = valueRange{"a percentage 0..100", func(v float64) bool { return v >= 0 && v <= 100 }}
	below100 = valueRange{"a percentage 0 <= p < 100", func(v float64) bool { return v >= 0 && v < 100 }}
	count    = valueRange{"a whole number >= 0", func(v float64) bool { return v >= 0 && v <= 1e9 && v == math.Trunc(v) }}
	evenSize = valueRange{"an even whole number >= 4", func(v float64) bool { return v >= 4 && v <= 1e4 && math.Mod(v, 2) == 0 }}
	// flapMs keeps a flap's half-period, its outage, at least 500 ns.
	flapMs = valueRange{"0 (no flapping) or a period >= 0.001 ms", func(v float64) bool { return v == 0 || v >= 0.001 && v <= 1e9 }}
)

type valueRange struct {
	want string
	ok   func(float64) bool
}

// num builds a numeric axis's parser: a value in r, tagged "<tag><value>".
func num(tag string, r valueRange, set func(p *Params, sz *Sizing, v float64)) func(string) (string, Edit, error) {
	return func(tok string) (string, Edit, error) {
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil || !r.ok(v) {
			return "", nil, errors.New(r.want)
		}
		return fmt.Sprintf("%s%g", tag, v), func(p *Params, sz *Sizing) { set(p, sz, v) }, nil
	}
}

func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// parseGE reads one Gilbert-Elliott tuple pGB:pBG[:lossBad[:lossGood]],
// all in percent like `tc netem loss gemodel` (lossBad defaults to 100,
// lossGood to 0); "0" is the clean baseline.
func parseGE(tok string) (string, Edit, error) {
	var ge netem.LossGE
	if tok != "0" {
		fields := strings.Split(tok, ":")
		if len(fields) < 2 || len(fields) > 4 {
			return "", nil, errors.New("pGB:pBG[:lossBad[:lossGood]] in percent")
		}
		vals := [4]float64{0, 0, 100, 0}
		for i, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || !percent.ok(v) {
				return "", nil, fmt.Errorf("percentages 0..100, not %q", f)
			}
			vals[i] = v
		}
		if vals[0] > 0 && vals[1] == 0 {
			return "", nil, errors.New("pBG > 0: at 0 the bad state is absorbing")
		}
		ge = netem.LossGE{PGoodBad: vals[0] / 100, PBadGood: vals[1] / 100, LossBad: vals[2] / 100, LossGood: vals[3] / 100}
	}
	return "ge" + strings.ReplaceAll(tok, ":", "-"), func(p *Params, _ *Sizing) { p.Impair.GE = ge }, nil
}

// The axes. Several rows share one (every testbed row owns the trunk
// rate, every fat-tree row the arity); Axes() lists each once.
var (
	axTrunk = &Axis{Flag: "trunk-mbps", Usage: "trunk-rate grid in Mbit/s",
		parse: num("trunk", positive, func(p *Params, _ *Sizing, v float64) { p.TrunkRate = v * 1e6 })}

	axArity = &Axis{Flag: "arity", Usage: "fat-tree arity grid (hybrid, churn, scale); selects the at-scale calibration",
		parse: num("arity", evenSize, func(_ *Params, sz *Sizing, v float64) { sz.Arity = int(v) })}
	axFlowsPerHost = &Axis{Flag: "flows-per-host", Usage: "hybrid flows-per-host grid",
		parse: num("fph", valueRange{"a whole number >= 1", func(v float64) bool { return v >= 1 && count.ok(v) }},
			func(_ *Params, sz *Sizing, v float64) { sz.FlowsPerHost = int(v) })}
	axArrivalRate = &Axis{Flag: "arrival-rate", Usage: "churn flow-arrival grid, flows per simulated second",
		parse: num("rate", positive, func(_ *Params, sz *Sizing, v float64) { sz.ArrivalRate = v })}

	axCrashes = &Axis{Flag: "chaos-crashes", Usage: "chaos crash-count grid", Probe: []string{"1"},
		parse: num("crash", count, func(p *Params, _ *Sizing, v float64) { p.ChaosCrashes = int(v) })}
	axFlap = &Axis{Flag: "chaos-flap-ms", Usage: "chaos trunk-flap period grid in ms (0 = no flapping)", Probe: []string{"30"},
		parse: num("flap", flapMs, func(p *Params, _ *Sizing, v float64) { p.ChaosFlapPeriod = ms(v) })}

	axLoss = &Axis{Flag: "loss", Usage: "trunk loss grid in percent (0 = clean)", Probe: []string{"1"},
		parse: num("loss", percent, func(p *Params, _ *Sizing, v float64) { p.Impair.LossPct = v })}
	axLossCorr = &Axis{Flag: "loss-corr", Usage: "loss correlation percent for every -loss variant (netem-style)", Scalar: true, Probe: []string{"25"},
		parse: num("", below100, func(p *Params, _ *Sizing, v float64) { p.Impair.LossCorrPct = v })}
	axGE = &Axis{Flag: "loss-ge", Usage: "Gilbert-Elliott grid: pGB:pBG[:lossBad[:lossGood]] tuples in percent (0 = clean)", Probe: []string{"1:25"},
		parse: parseGE}
	axDup = &Axis{Flag: "dup-pct", Usage: "trunk duplication grid in percent", Probe: []string{"0.5"},
		parse: num("dup", percent, func(p *Params, _ *Sizing, v float64) { p.Impair.DupPct = v })}
	axCorrupt = &Axis{Flag: "corrupt-pct", Usage: "trunk bit-corruption grid in percent", Probe: []string{"0.2"},
		parse: num("corrupt", percent, func(p *Params, _ *Sizing, v float64) { p.Impair.CorruptPct = v })}
	axReorder = &Axis{Flag: "reorder-ms", Usage: "reorder-jitter grid in ms (0 = none)", Probe: []string{"1"},
		parse: num("reorder", nonNeg, func(p *Params, _ *Sizing, v float64) { p.Impair.ReorderJitter = ms(v) })}
	axReorderPct = &Axis{Flag: "reorder-pct", Usage: "percent of packets jittered in -reorder-ms variants", Scalar: true, Default: "25",
		parse: num("", percent, func(p *Params, _ *Sizing, v float64) { p.Impair.ReorderPct = v })}

	axPartitions = &Axis{Flag: "partitions", Scalar: true, Probe: []string{"1", "4"},
		Usage: "run each simulation on the parallel engine with this many partitions (0/1 = serial)",
		parse: num("", count, func(p *Params, _ *Sizing, v float64) { p.Partitions = int(v) })}
	axSettleWorkers = &Axis{Flag: "settle-workers", Scalar: true, Probe: []string{"1", "2"},
		Usage: "fluid-allocator settle workers for hybrid and churn (0/1 = serial)",
		parse: num("", count, func(_ *Params, sz *Sizing, v float64) { sz.SettleWorkers = int(v) })}

	partitioned = []*Axis{axPartitions}
	settled     = []*Axis{axSettleWorkers}
	impairAxes  = []*Axis{axTrunk, axLoss, axLossCorr, axGE, axDup, axCorrupt, axReorder, axReorderPct}

	// central3 is where the rows that build their own topology (a fat
	// tree, a k-router combiner, an attacked Central3) are defined.
	central3 = []Scenario{ScenCentral3}
)

// paperColumn lifts one column of the published Table I into a Row.Paper.
func paperColumn(col func(Table1Row) float64) map[Scenario]float64 {
	m := make(map[Scenario]float64, len(PaperTable1))
	for _, r := range PaperTable1 {
		m[r.Scenario] = col(r)
	}
	return m
}

var table = []Row{
	KindTCP - 1: {Name: "tcp", Doc: "Fig. 4 / Table I: TCP bulk goodput", Run: tcpRow,
		Axes: []*Axis{axTrunk}, Exec: partitioned, Headline: []string{"tcp_mbps"},
		Paper: paperColumn(func(r Table1Row) float64 { return r.TCPMbps })},
	KindUDP - 1: {Name: "udp", Doc: "Fig. 5 / Table I: max UDP rate under the loss goal", Run: udpRow,
		Axes: []*Axis{axTrunk}, Exec: partitioned, Headline: []string{"udp_mbps", "udp_loss"},
		Paper: paperColumn(func(r Table1Row) float64 { return r.UDPMbps })},
	KindLoad - 1: {Name: "load", Doc: "Fig. 6: achieved rate and loss across offered UDP loads", Run: loadRow,
		Axes: []*Axis{axTrunk}, Exec: partitioned, Scenarios: central3,
		Headline: []string{"achieved_mbps_250", "loss_250", "achieved_mbps_400", "loss_400"}},
	KindPing - 1: {Name: "ping", Doc: "Fig. 7 / Table I: ICMP echo RTT", Run: pingRow,
		Axes: []*Axis{axTrunk}, Exec: partitioned, Headline: []string{"rtt_avg_ms", "ping_received"},
		Paper: paperColumn(func(r Table1Row) float64 { return float64(r.AvgRTT) / float64(time.Millisecond) })},
	KindJitter - 1: {Name: "jitter", Doc: "Fig. 8: UDP jitter across packet sizes", Run: jitterRow,
		Axes: []*Axis{axTrunk}, Exec: partitioned, Headline: []string{"jitter_us_128B", "jitter_us_1470B"}},
	KindKSweep - 1: {Name: "ksweep", Doc: "TCP, UDP and RTT of the Central combiner at k = 1, 2, 3, 4, 5, 7 routers", Run: ksweepRow,
		Axes: []*Axis{axTrunk}, Exec: partitioned, Scenarios: central3,
		Headline: []string{"tcp_mbps_k1", "tcp_mbps_k3", "tcp_mbps_k5", "tcp_mbps_k7"}},
	KindDoS - 1: {Name: "dos", Doc: "benign UDP goodput under a replaying and a flooding router, §IV defences on and off", Run: dosRow,
		Axes: []*Axis{axTrunk}, Exec: partitioned, Scenarios: central3,
		Headline: []string{"dos_baseline_mbps", "dos_replay_mbps", "dos_replay_blocks", "dos_flood_isolated_mbps", "dos_quota_drops", "dos_flood_shared_mbps"}},
	KindHybrid - 1: {Name: "hybrid", Doc: "fluid fat tree with a packet-exact Central3 region; serial", Run: hybridRow,
		Axes: []*Axis{axArity, axFlowsPerHost}, Exec: settled, Scenarios: central3, Headline: []string{"fluid_goodput_mbps", "hybrid_event_ratio"}},
	KindChaos - 1: {Name: "chaos", Doc: "UDP delivery and recovery time while routers crash and a trunk flaps", Run: chaosRow,
		Axes: []*Axis{axTrunk, axCrashes, axFlap}, Exec: partitioned,
		Headline: []string{"delivered_frac", "recovery_ms", "impair_drops", "impair_duplicated"}},
	KindImpair - 1: {Name: "impair", Doc: "UDP delivery with the netem impairment pipeline on every trunk", Run: impairRow,
		Axes: impairAxes, Exec: partitioned,
		Headline: []string{"delivered_frac", "goodput_mbps", "impair_drops", "impair_duplicated"}},
	KindChurn - 1: {Name: "churn", Doc: "open flow arrivals/departures over the fluid fat tree; serial", Run: churnRow,
		Axes: []*Axis{axArity, axArrivalRate}, Exec: settled, Scenarios: central3, Headline: []string{"lifecycle_events_per_sim_s", "churn_peak_live", "churn_goodput_mbps"}},
	KindScale - 1: {Name: "scale", Doc: "cross-pod UDP over a packet fat tree, the partitioned engine's subject", Run: scaleRow,
		Axes: []*Axis{axTrunk, axArity}, Exec: partitioned, Scenarios: central3, Headline: []string{"scale_hosts", "scale_events"}},
	KindCaseStudy - 1: {Name: "casestudy", Doc: "§VI: a mirroring, dropping aggregation switch in a fat tree — benign, unprotected, inside a k=3 combiner; serial", Run: caseStudyRow,
		Scenarios: central3, Paper: map[Scenario]float64{ScenCentral3: 20},
		Headline: []string{"attack_requests_at_fw", "attack_responses_at_vm", "protected_responses_at_vm", "protected_suppressed"}},
	KindVirtual - 1: {Name: "virtual", Doc: "§VII: prevention over 3 and detection over 2 disjoint paths, goodput against one bare path", Run: virtualRow,
		Axes: []*Axis{axTrunk}, Exec: partitioned, Scenarios: central3,
		Headline: []string{"prevent_delivered", "prevent_suppressed", "detect_alarms", "first_detection_ms", "bare_mbps", "combined_mbps"}},
}

// AllKinds lists every schedulable kind, in table order.
var AllKinds = func() []Kind {
	ks := make([]Kind, len(table))
	for i := range ks {
		ks[i] = Kind(i + 1)
	}
	return ks
}()

// Register appends a row and returns its Kind. It is for package
// initialisation (tests add throwaway rows this way): the table is read
// without locking once runs start.
func Register(r Row) Kind {
	table = append(table, r)
	AllKinds = append(AllKinds, Kind(len(table)))
	return Kind(len(table))
}

// Row returns the kind's table entry; it panics on a Kind outside the
// table, which only a bug can produce.
func (k Kind) Row() *Row {
	if k < 1 || int(k) > len(table) {
		panic(fmt.Sprintf("experiment: unknown Kind %d", k))
	}
	return &table[k-1]
}

// String names the kind for CLIs and artifacts.
func (k Kind) String() string {
	if k < 1 || int(k) > len(table) {
		return "unknown"
	}
	return table[k-1].Name
}

// KindNames lists the registered names, comma-separated.
func KindNames() string {
	names := make([]string, len(AllKinds))
	for i, k := range AllKinds {
		names[i] = k.String()
	}
	return strings.Join(names, ",")
}

// ParseKind is the inverse of Kind.String.
func ParseKind(name string) (Kind, error) {
	for _, k := range AllKinds {
		if strings.EqualFold(name, k.String()) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("experiment: unknown kind %q (want one of %s)", name, KindNames())
}

// Axes lists every axis of every row once, in table order — the order
// grids cross in, and so the order of tags in a variant's name.
func Axes() []*Axis {
	var out []*Axis
	seen := map[*Axis]bool{}
	for i := range table {
		for _, list := range [][]*Axis{table[i].Axes, table[i].Exec} {
			for _, a := range list {
				if !seen[a] {
					seen[a] = true
					out = append(out, a)
				}
			}
		}
	}
	return out
}

// The rows' Run funcs: each flattens its engine's result into metrics,
// mergeable summaries and — where the engine has one — the digest.

func tcpRow(p Params, _ Sizing, s Scenario) Result {
	res := newResult()
	tr := RunTCP(p, s)
	res.setMetric("tcp_mbps", tr.Mbps)
	res.setMetric("tcp_retransmits", float64(tr.Retransmits))
	res.setMetric("tcp_timeouts", float64(tr.Timeouts))
	res.setMetric("tcp_dup_acks", float64(tr.DupAcks))
	var runs metrics.Summary
	for _, mbps := range tr.Runs {
		runs.Add(mbps)
	}
	res.addSummary("tcp_mbps", runs)
	return res
}

func udpRow(p Params, _ Sizing, s Scenario) Result {
	res := newResult()
	ur := RunUDPMax(p, s)
	res.sample("udp_mbps", ur.Mbps)
	res.setMetric("udp_loss", ur.Loss)
	return res
}

func loadRow(p Params, _ Sizing, _ Scenario) Result {
	res := newResult()
	for _, pt := range RunFig6(p) {
		res.sample(fmt.Sprintf("achieved_mbps_%.0f", pt.OfferedMbps), pt.AchievedMbps)
		res.setMetric(fmt.Sprintf("loss_%.0f", pt.OfferedMbps), pt.Loss)
	}
	return res
}

func pingRow(p Params, _ Sizing, s Scenario) Result {
	res := newResult()
	pr := RunPing(p, s)
	res.setMetric("ping_sent", float64(pr.Sent))
	res.setMetric("ping_received", float64(pr.Received))
	if pr.Received > 0 {
		res.sample("rtt_avg_ms", pr.AvgRTT.Seconds()*1e3)
		res.setMetric("rtt_min_ms", pr.MinRTT.Seconds()*1e3)
		res.setMetric("rtt_max_ms", pr.MaxRTT.Seconds()*1e3)
	}
	return res
}

func jitterRow(p Params, _ Sizing, s Scenario) Result {
	res := newResult()
	var across metrics.Summary
	for _, pt := range RunJitter(p, s, nil) {
		us := float64(pt.Jitter) / float64(time.Microsecond)
		res.setMetric(fmt.Sprintf("jitter_us_%dB", pt.PayloadSize), us)
		res.setMetric(fmt.Sprintf("loss_%dB", pt.PayloadSize), pt.Loss)
		across.Add(us)
	}
	res.addSummary("jitter_us", across)
	return res
}

func ksweepRow(p Params, _ Sizing, _ Scenario) Result {
	res := newResult()
	for _, pt := range RunKSweep(p) {
		res.setMetric(fmt.Sprintf("tcp_mbps_k%d", pt.K), pt.TCPMbps)
		res.sample(fmt.Sprintf("udp_mbps_k%d", pt.K), pt.UDPMbps)
		res.setMetric(fmt.Sprintf("rtt_ms_k%d", pt.K), pt.AvgRTT.Seconds()*1e3)
		res.setMetric(fmt.Sprintf("tolerated_k%d", pt.K), float64(pt.Tolerated))
	}
	return res
}

func dosRow(p Params, _ Sizing, _ Scenario) Result {
	res := newResult()
	dr := RunDoS(p)
	res.setMetric("dos_baseline_mbps", dr.BaselineMbps)
	res.setMetric("dos_replay_mbps", dr.ReplayMbps)
	res.setMetric("dos_replay_blocks", float64(dr.ReplayBlocks))
	res.setMetric("dos_flood_isolated_mbps", dr.FloodIsolatedMbps)
	res.setMetric("dos_flood_shared_mbps", dr.FloodSharedMbps)
	res.setMetric("dos_quota_drops", float64(dr.QuotaDrops))
	return res
}

func hybridRow(p Params, sz Sizing, _ Scenario) Result {
	res := newResult()
	hp := sz.fluid(p)
	t0 := time.Now()
	hr := RunHybrid(p, hp)
	res.Wall = fmt.Sprintf("%d switches, %d flows; build %.0f ms of %.2f s wall; %d settle worker(s)",
		hr.Switches, hr.Flows, hr.BuildTopoMS+hr.BuildWireMS+hr.BuildFlowsMS,
		time.Since(t0).Seconds(), max(1, hp.SettleWorkers))
	res.setMetric("hybrid_flows", float64(hr.Flows))
	res.setMetric("hybrid_cross_flows", float64(hr.CrossFlows))
	res.setMetric("hybrid_events", float64(hr.Events))
	res.setMetric("hybrid_settles", float64(hr.Settles))
	res.setMetric("hybrid_promotions", float64(hr.Promotions))
	res.setMetric("hybrid_demotions", float64(hr.Demotions))
	res.setMetric("hybrid_event_ratio", hr.EventRatio)
	res.sample("fluid_goodput_mbps", hr.FluidDeliveredBits/hp.Duration.Seconds()/1e6)
	res.Hists = hr.Hists
	res.Digest = hr.Digest
	return res
}

func chaosRow(p Params, _ Sizing, s Scenario) Result {
	res := newResult()
	cr := RunChaos(p, s)
	res.setMetric("chaos_sent", float64(cr.Sent))
	res.setMetric("chaos_delivered", float64(cr.Delivered))
	res.setMetric("chaos_dups", float64(cr.Dups))
	res.sample("delivered_frac", cr.DeliveredFrac)
	res.setMetric("chaos_crashes", float64(cr.Crashes))
	res.setMetric("chaos_flap_cycles", float64(cr.FlapCycles))
	res.setMetric("last_heal_ms", cr.LastHeal.Seconds()*1e3)
	if cr.Recovered {
		res.sample("recovery_ms", cr.Recovery.Seconds()*1e3)
	}
	if p.Impair.Enabled() {
		// Chaos under impairment: surface the pipeline's accounting so
		// the grid can separate modelled wire loss from outage loss.
		res.setImpair(cr.Impair)
	}
	return res
}

func impairRow(p Params, _ Sizing, s Scenario) Result {
	res := newResult()
	ir := RunImpair(p, s)
	res.setMetric("impair_sent", float64(ir.Sent))
	res.setMetric("impair_delivered", float64(ir.Delivered))
	res.setMetric("impair_dups", float64(ir.Dups))
	res.sample("delivered_frac", ir.DeliveredFrac)
	res.sample("goodput_mbps", ir.GoodputMbps)
	res.setImpair(ir.Counters)
	return res
}

func churnRow(p Params, sz Sizing, _ Scenario) Result {
	res := newResult()
	hp := sz.fluid(p)
	t0 := time.Now()
	cr := RunChurn(p, hp)
	res.Wall = fmt.Sprintf("%d switches, %d hosts; build %.2f ms of %.2f s wall; %d settle worker(s)",
		cr.Switches, cr.Hosts, cr.BuildTopoMS, time.Since(t0).Seconds(), max(1, hp.SettleWorkers))
	res.setMetric("churn_arrivals", float64(cr.Arrivals))
	res.setMetric("churn_departures", float64(cr.Departures))
	res.setMetric("churn_peak_live", float64(cr.PeakLive))
	res.setMetric("churn_recycled", float64(cr.Recycled))
	res.setMetric("churn_settles", float64(cr.Settles))
	res.setMetric("churn_components_solved", float64(cr.ComponentsSolved))
	res.setMetric("churn_wheel_expired", float64(cr.WheelExpired))
	res.setMetric("arrivals_per_sim_s", cr.ArrivalsPerSimSec)
	res.sample("lifecycle_events_per_sim_s", cr.LifecycleEventsPerSimSec)
	res.setMetric("churn_goodput_mbps", cr.DeliveredBits/hp.Duration.Seconds()/1e6)
	res.Digest = cr.Digest
	return res
}

// scaleRow runs the packet fat tree (arity 4 unless sized) for 15 % of
// the UDP window: 150 ms at the default calibration, the window every
// recorded scaling row used.
func scaleRow(p Params, sz Sizing, _ Scenario) Result {
	res := newResult()
	arity := 4
	if sz.Arity > 0 {
		arity = sz.Arity
	}
	sr := RunScale(p, arity, p.UDPDuration*3/20)
	res.Wall = fmt.Sprintf("build %.2f s, run %.2f s, %.0f events/s", sr.BuildWall.Seconds(), sr.RunWall.Seconds(),
		float64(sr.Events)/sr.RunWall.Seconds())
	if st := sr.Engine; st.Epochs > 0 {
		// The engine's own counters follow the wall clock (which way an
		// epoch ran is a measured choice): console only.
		res.Wall += fmt.Sprintf("; %d partitions: %d epochs, %.1f%% inline, %d change-over(s), %d hand-offs, imbalance %.2f",
			sr.Partitions, st.Epochs, 100*st.InlineFrac(), st.Changeovers, st.Handoffs, st.Imbalance())
	}
	res.setMetric("scale_hosts", float64(sr.Hosts))
	res.setMetric("scale_events", float64(sr.Events))
	h := fnv.New64a()
	h.Write([]byte(sr.Digest))
	res.Digest = fmt.Sprintf("scale=%016x|events=%d", h.Sum64(), sr.Events)
	return res
}

func caseStudyRow(p Params, _ Sizing, _ Scenario) Result {
	res := newResult()
	cs := RunCaseStudy(p)
	for _, act := range []struct {
		name string
		o    CaseStudyOutcome
	}{{"baseline", cs.Baseline}, {"attack", cs.Attack}, {"protected", cs.Protected}} {
		res.setMetric(act.name+"_requests_at_fw", float64(act.o.RequestsAtFirewall))
		res.setMetric(act.name+"_responses_at_vm", float64(act.o.ResponsesAtVM))
		res.setMetric(act.name+"_stray_at_core", float64(act.o.StrayAtCore))
		res.setMetric(act.name+"_first_hop_count", float64(act.o.PathRuleRequests))
	}
	res.setMetric("protected_released", float64(cs.Protected.CompareReleased))
	res.setMetric("protected_suppressed", float64(cs.Protected.CompareSuppressed))
	return res
}

func virtualRow(p Params, _ Sizing, _ Scenario) Result {
	res := newResult()
	vr := RunVirtual(p)
	res.setMetric("prevent_sent", float64(vr.PreventSent))
	res.setMetric("prevent_delivered", float64(vr.PreventDelivered))
	res.setMetric("prevent_suppressed", float64(vr.PreventSuppressed))
	res.setMetric("detect_sent", float64(vr.DetectSent))
	res.setMetric("detect_delivered", float64(vr.DetectDelivered))
	res.setMetric("detect_alarms", float64(vr.DetectAlarms))
	if vr.DetectAlarms > 0 {
		res.setMetric("first_detection_ms", vr.FirstDetectionAt.Seconds()*1e3)
	}
	res.setMetric("bare_mbps", vr.BaselineMbps)
	res.setMetric("combined_mbps", vr.CombinedMbps)
	return res
}
