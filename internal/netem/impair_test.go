package netem

import (
	"math"
	"reflect"
	"testing"
	"time"

	"netco/internal/sim"
	"netco/internal/sim/par"
)

// The statistical validation suite: every impairment stage is checked
// against its analytic model at >= 3 parameter points. All runs use
// fixed seeds, so the empirical rates — and therefore pass/fail — are
// deterministic; the concentration bounds below (Hoeffding-style, ~5-6
// standard errors plus a small absolute slack) say how close a correct
// implementation must land, so a transposed parameter, an off-by-one in
// a chain transition, or a biased PRNG fails loudly rather than
// flakily.

// impairRun is one observed run of an impaired a→b link.
type impairRun struct {
	uids      []uint64 // arrival order (uid = send index)
	at        []time.Duration
	corrupted []bool
	payloads  [][]byte
	stats     LinkStats
}

// runImpaired drives n sequence-stamped packets, spaced `spacing` apart,
// across one a→b link with the given config and returns everything the
// receiver saw. Meta.UID carries the send index (it survives cloning
// and corruption, unlike payload bytes).
func runImpaired(n int, spacing time.Duration, cfg LinkConfig) impairRun {
	sched := sim.NewScheduler()
	net := New(sched)
	a, b := newCollector(sched, "a"), newCollector(sched, "b")
	l := net.Connect(a, 0, b, 0, cfg)
	for i := 0; i < n; i++ {
		i := i
		sched.At(time.Duration(i)*spacing, func() {
			p := testPacket(100)
			p.Meta.UID = uint64(i)
			a.ports.Send(0, p)
		})
	}
	sched.Run()

	res := impairRun{stats: l.Stats(0)}
	for k, p := range b.got {
		res.uids = append(res.uids, p.Meta.UID)
		res.at = append(res.at, b.at[k])
		res.corrupted = append(res.corrupted, p.Meta.Corrupted)
		res.payloads = append(res.payloads, p.Payload)
	}
	return res
}

// lossPattern reconstructs the per-send lost/delivered sequence from
// arrival uids.
func lossPattern(n int, uids []uint64) []bool {
	lost := make([]bool, n)
	for i := range lost {
		lost[i] = true
	}
	for _, u := range uids {
		lost[u] = false
	}
	return lost
}

func countLost(lost []bool) int {
	c := 0
	for _, l := range lost {
		if l {
			c++
		}
	}
	return c
}

// bernoulliTol is the concentration half-width for an empirical rate of
// n i.i.d. Bernoulli(p) trials: five standard errors plus a 3/n
// absolute term so p near 0 keeps a meaningful band.
func bernoulliTol(p float64, n int) float64 {
	return 5*math.Sqrt(p*(1-p)/float64(n)) + 3/float64(n)
}

func checkRate(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: empirical rate %.5f outside %.5f ± %.5f", what, got, want, tol)
	}
}

const statN = 20000

func impairCfg(seed int64, stages ...StageSpec) LinkConfig {
	return LinkConfig{Impairments: &ImpairSpec{Seed: seed, Stages: stages}}
}

func TestImpairLossIID(t *testing.T) {
	for _, p := range []float64{0.01, 0.1, 0.3} {
		res := runImpaired(statN, time.Microsecond, impairCfg(11, Loss{P: p}))
		lostN := statN - len(res.uids)
		checkRate(t, "iid loss", float64(lostN)/statN, p, bernoulliTol(p, statN))
		if got := res.stats.ImpairDrops; got != uint64(lostN) {
			t.Errorf("p=%g: ImpairDrops = %d, want %d (missing arrivals)", p, got, lostN)
		}
		// Impairment loss is wire loss, not backpressure: TxPackets counts
		// only the frames that actually serialised, Drops stays zero.
		if got := res.stats.TxPackets; got != uint64(len(res.uids)) {
			t.Errorf("p=%g: TxPackets = %d, want %d", p, got, len(res.uids))
		}
		if res.stats.Drops != 0 {
			t.Errorf("p=%g: Drops = %d, want 0", p, res.stats.Drops)
		}
	}
}

func TestImpairLossCorrelated(t *testing.T) {
	const p = 0.1
	for _, corr := range []float64{0.25, 0.5, 0.9} {
		res := runImpaired(statN, time.Microsecond, impairCfg(13, Loss{P: p, Corr: corr}))
		lost := lossPattern(statN, res.uids)

		// The stationary loss rate is exactly P regardless of correlation.
		checkRate(t, "correlated loss stationary", float64(countLost(lost))/statN, p,
			2*bernoulliTol(p, statN)) // correlation inflates the variance

		// The conditional structure is the model: P(loss | prev lost) =
		// p + corr·(1−p), P(loss | prev ok) = p·(1−corr).
		var afterLost, lostAfterLost, afterOK, lostAfterOK int
		for i := 1; i < statN; i++ {
			if lost[i-1] {
				afterLost++
				if lost[i] {
					lostAfterLost++
				}
			} else {
				afterOK++
				if lost[i] {
					lostAfterOK++
				}
			}
		}
		pLL := p + corr*(1-p)
		checkRate(t, "P(loss|prev lost)", float64(lostAfterLost)/float64(afterLost),
			pLL, bernoulliTol(pLL, afterLost))
		pLO := p * (1 - corr)
		checkRate(t, "P(loss|prev ok)", float64(lostAfterOK)/float64(afterOK),
			pLO, bernoulliTol(pLO, afterOK))
	}
}

func TestImpairLossGE(t *testing.T) {
	cases := []struct {
		ge LossGE
	}{
		{LossGE{PGoodBad: 0.01, PBadGood: 0.25, LossBad: 1}},
		{LossGE{PGoodBad: 0.05, PBadGood: 0.5, LossBad: 1}},
		{LossGE{PGoodBad: 0.02, PBadGood: 0.2, LossBad: 0.8, LossGood: 0.005}},
	}
	for _, tc := range cases {
		ge := tc.ge
		res := runImpaired(statN, time.Microsecond, impairCfg(17, ge))
		lost := lossPattern(statN, res.uids)

		piB := ge.PGoodBad / (ge.PGoodBad + ge.PBadGood)
		want := piB*ge.LossBad + (1-piB)*ge.LossGood
		// The chain decorrelates at rate pGB+pBG, so the effective sample
		// size shrinks accordingly; six (inflated) standard errors.
		nEff := statN * (ge.PGoodBad + ge.PBadGood) / 2
		tol := 6*math.Sqrt(want*(1-want)/nEff) + 3.0/statN
		checkRate(t, "gilbert-elliott loss", float64(countLost(lost))/statN, want, tol)

		if ge.LossBad == 1 && ge.LossGood == 0 {
			// Classic Gilbert: a loss burst is exactly a bad-state sojourn,
			// geometric with mean 1/PBadGood.
			var bursts, inBurst int
			var total float64
			for _, l := range lost {
				if l {
					inBurst++
				} else if inBurst > 0 {
					bursts++
					total += float64(inBurst)
					inBurst = 0
				}
			}
			wantMean := 1 / ge.PBadGood
			// Geometric variance (1−r)/r² over `bursts` samples.
			sd := math.Sqrt((1 - ge.PBadGood) / (ge.PBadGood * ge.PBadGood) / float64(bursts))
			if got := total / float64(bursts); math.Abs(got-wantMean) > 6*sd {
				t.Errorf("GE %+v: mean burst length %.3f outside %.3f ± %.3f (%d bursts)",
					ge, got, wantMean, 6*sd, bursts)
			}
		}
	}
}

func TestImpairDuplicate(t *testing.T) {
	for _, p := range []float64{0.01, 0.05, 0.2} {
		res := runImpaired(statN, time.Microsecond, impairCfg(23, Duplicate{P: p}))
		extra := len(res.uids) - statN
		if extra < 0 {
			t.Fatalf("p=%g: lost packets under pure duplication", p)
		}
		checkRate(t, "duplication", float64(extra)/statN, p, bernoulliTol(p, statN))
		if res.stats.Duplicated != uint64(extra) {
			t.Errorf("p=%g: Duplicated = %d, want %d", p, res.stats.Duplicated, extra)
		}
		// Every uid arrives once or twice, never more (one Duplicate stage).
		seen := map[uint64]int{}
		for _, u := range res.uids {
			seen[u]++
		}
		for u, c := range seen {
			if c > 2 {
				t.Fatalf("p=%g: uid %d delivered %d times", p, u, c)
			}
		}
		if len(seen) != statN {
			t.Errorf("p=%g: %d distinct uids, want %d", p, len(seen), statN)
		}
	}
}

func TestImpairCorrupt(t *testing.T) {
	for _, p := range []float64{0.01, 0.05, 0.15} {
		res := runImpaired(statN, time.Microsecond, impairCfg(29, Corrupt{P: p}))
		if len(res.uids) != statN {
			t.Fatalf("p=%g: corruption changed delivery count: %d", p, len(res.uids))
		}
		var corrupted int
		for i, c := range res.corrupted {
			// testPacket payloads are all-zero, so a flipped bit is exactly
			// one nonzero byte — the compare path genuinely sees different
			// bytes, and only on flagged packets.
			nz := 0
			for _, b := range res.payloads[i] {
				if b != 0 {
					nz++
				}
			}
			if c {
				corrupted++
				if nz != 1 {
					t.Fatalf("p=%g: corrupted packet has %d nonzero payload bytes, want 1", p, nz)
				}
			} else if nz != 0 {
				t.Fatalf("p=%g: unflagged packet has mutated payload", p)
			}
		}
		checkRate(t, "corruption", float64(corrupted)/statN, p, bernoulliTol(p, statN))
		if res.stats.Corrupted != uint64(corrupted) {
			t.Errorf("p=%g: Corrupted = %d, want %d", p, res.stats.Corrupted, corrupted)
		}
	}
}

func TestImpairReorder(t *testing.T) {
	const spacing = 10 * time.Microsecond
	cases := []struct {
		r    Reorder
		want float64 // adjacent-inversion probability
	}{
		// P=1: inversion iff extra_i − extra_{i+1} > S, probability
		// ((J−S)/J)²/2 for uniform extras.
		{Reorder{P: 1, Jitter: 50 * time.Microsecond}, 0.32},
		{Reorder{P: 1, Jitter: 20 * time.Microsecond}, 0.125},
		// P=0.5, J=100µs: 0.25·((J−S)/J)²/2 + 0.25·P(extra > S) = 0.326.
		{Reorder{P: 0.5, Jitter: 100 * time.Microsecond}, 0.326},
	}
	for _, tc := range cases {
		res := runImpaired(statN, spacing, impairCfg(31, tc.r))
		if len(res.uids) != statN {
			t.Fatalf("reorder lost packets: %d", len(res.uids))
		}
		// arrival[uid] = delivery instant; all uids present.
		arrival := make([]time.Duration, statN)
		for k, u := range res.uids {
			arrival[u] = res.at[k]
		}
		var inversions int
		for i := 0; i+1 < statN; i++ {
			if arrival[i+1] < arrival[i] {
				inversions++
			}
		}
		// Adjacent inversions share a draw, so widen the i.i.d. bound.
		checkRate(t, "adjacent inversion", float64(inversions)/float64(statN-1),
			tc.want, 2*bernoulliTol(tc.want, statN-1))

		// Mean extra delay is P·J/2 (the uniform draw's mean, applied with
		// probability P).
		var meanExtra float64
		for i := range arrival {
			meanExtra += float64(arrival[i] - time.Duration(i)*spacing)
		}
		meanExtra /= statN
		wantExtra := tc.r.P * float64(tc.r.Jitter) / 2
		if math.Abs(meanExtra-wantExtra) > 0.02*float64(tc.r.Jitter) {
			t.Errorf("reorder %+v: mean extra %.0fns, want %.0fns", tc.r, meanExtra, wantExtra)
		}

		// The Reordered counter is exactly the number of deliveries
		// scheduled earlier than the latest already-scheduled delivery.
		var wantReordered uint64
		var maxAt time.Duration
		for i := range arrival {
			if arrival[i] < maxAt {
				wantReordered++
			} else {
				maxAt = arrival[i]
			}
		}
		if res.stats.Reordered != wantReordered {
			t.Errorf("reorder %+v: Reordered = %d, want %d", tc.r, res.stats.Reordered, wantReordered)
		}
	}
}

// TestImpairPipelineComposed checks counters stay disjoint and coherent
// when every stage kind runs in one pipeline.
func TestImpairPipelineComposed(t *testing.T) {
	cfg := impairCfg(37,
		Loss{P: 0.05, Corr: 0.3},
		LossGE{PGoodBad: 0.01, PBadGood: 0.3, LossBad: 1},
		Corrupt{P: 0.02},
		Duplicate{P: 0.05},
		Reorder{P: 0.3, Jitter: 40 * time.Microsecond},
	)
	res := runImpaired(statN, 10*time.Microsecond, cfg)
	s := res.stats
	if got := uint64(len(res.uids)); got != statN-s.ImpairDrops+s.Duplicated {
		t.Fatalf("arrivals %d != sent %d - lost %d + duplicated %d",
			got, statN, s.ImpairDrops, s.Duplicated)
	}
	if s.TxPackets != uint64(len(res.uids)) {
		t.Fatalf("TxPackets %d != deliveries %d", s.TxPackets, len(res.uids))
	}
	if s.Corrupted == 0 || s.Duplicated == 0 || s.ImpairDrops == 0 || s.Reordered == 0 {
		t.Fatalf("composed pipeline left a counter at zero: %+v", s)
	}
	if s.Drops != 0 || s.InFlightDrops != 0 {
		t.Fatalf("composed pipeline leaked into backpressure counters: %+v", s)
	}
}

func TestImpairDeterministicAcrossRuns(t *testing.T) {
	cfg := impairCfg(41,
		LossGE{PGoodBad: 0.02, PBadGood: 0.3, LossBad: 1},
		Duplicate{P: 0.05},
		Reorder{P: 0.5, Jitter: 30 * time.Microsecond},
	)
	a := runImpaired(5000, 10*time.Microsecond, cfg)
	b := runImpaired(5000, 10*time.Microsecond, cfg)
	if !reflect.DeepEqual(a.uids, b.uids) || !reflect.DeepEqual(a.at, b.at) {
		t.Fatal("identical configs produced different delivery sequences")
	}
	if a.stats != b.stats {
		t.Fatalf("identical configs produced different stats: %+v vs %+v", a.stats, b.stats)
	}

	// A different run seed must shift the decisions...
	cfg2 := cfg
	cfg2.Impairments = &ImpairSpec{Seed: 42, Stages: cfg.Impairments.Stages}
	c := runImpaired(5000, 10*time.Microsecond, cfg2)
	if reflect.DeepEqual(a.uids, c.uids) && reflect.DeepEqual(a.at, c.at) {
		t.Fatal("different seeds produced identical runs")
	}
}

// TestImpairDirectionsIndependent checks the two directions of one link
// draw from unrelated streams: the same traffic pattern sees different
// loss patterns per direction.
func TestImpairDirectionsIndependent(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	a, b := newCollector(sched, "a"), newCollector(sched, "b")
	net.Connect(a, 0, b, 0, impairCfg(43, Loss{P: 0.3}))
	const n = 2000
	for i := 0; i < n; i++ {
		i := i
		sched.At(time.Duration(i)*time.Microsecond, func() {
			pa := testPacket(100)
			pa.Meta.UID = uint64(i)
			a.ports.Send(0, pa)
			pb := testPacket(100)
			pb.Meta.UID = uint64(i)
			b.ports.Send(0, pb)
		})
	}
	sched.Run()
	gotA := make([]uint64, 0, len(b.got))
	for _, p := range b.got {
		gotA = append(gotA, p.Meta.UID)
	}
	gotB := make([]uint64, 0, len(a.got))
	for _, p := range a.got {
		gotB = append(gotB, p.Meta.UID)
	}
	if reflect.DeepEqual(gotA, gotB) {
		t.Fatal("a→b and b→a loss patterns identical: directions share a stream")
	}
}

func TestImpairSpecValidate(t *testing.T) {
	nan := math.NaN()
	bad := []*ImpairSpec{
		{Stages: []StageSpec{Loss{P: 1.5}}},
		{Stages: []StageSpec{Loss{P: 0.1, Corr: 1}}},
		{Stages: []StageSpec{LossGE{PGoodBad: 0.1}}}, // absorbing bad state
		{Stages: []StageSpec{Duplicate{P: -0.1}}},
		{Stages: []StageSpec{Corrupt{P: 2}}},
		{Stages: []StageSpec{Reorder{P: 0.5}}}, // zero jitter
		// NaN fails every comparison, so it must fail each range check
		// rather than run as probability 0.
		{Stages: []StageSpec{Loss{P: nan}}},
		{Stages: []StageSpec{Loss{P: 0.1, Corr: nan}}},
		{Stages: []StageSpec{LossGE{PGoodBad: nan}}},
		{Stages: []StageSpec{LossGE{PGoodBad: 0.1, PBadGood: 0.2, LossBad: nan}}},
		{Stages: []StageSpec{Duplicate{P: nan}}},
		{Stages: []StageSpec{Corrupt{P: nan}}},
		{Stages: []StageSpec{Reorder{P: nan, Jitter: time.Millisecond}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d: Validate accepted invalid stage %#v", i, s.Stages[0])
		}
	}
	good := &ImpairSpec{Stages: []StageSpec{
		Loss{P: 0.1, Corr: 0.5},
		LossGE{PGoodBad: 0.01, PBadGood: 0.2, LossBad: 1},
		Duplicate{P: 0.1}, Corrupt{P: 0.05},
		Reorder{P: 0.3, Jitter: time.Millisecond},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate rejected valid spec: %v", err)
	}
}

// buildImpairFlap wires an impaired a→b link whose GE burst machine is
// interrupted by an administrative flap mid-run (the impairment × chaos
// interaction): parts=0 is the serial reference, otherwise a partitioned
// engine with that many domains (a in the first, b in the last).
func buildImpairFlap(parts int) (run func(), result func() (impairRun, LinkStats)) {
	spec := &ImpairSpec{Seed: 47, Stages: []StageSpec{
		LossGE{PGoodBad: 0.08, PBadGood: 0.15, LossBad: 1},
		Reorder{P: 0.4, Jitter: 30 * time.Microsecond},
	}}
	cfg := LinkConfig{
		Bandwidth: 100e6, Delay: 50 * time.Microsecond,
		DropInFlight: true, Impairments: spec,
	}

	var net *Network
	var eng *par.Engine
	if parts == 0 {
		net = New(sim.NewScheduler())
	} else {
		eng = par.New(parts, 2)
		net = NewPartitioned(eng.Schedulers(),
			func(name string) int {
				if name == "a" {
					return 0
				}
				return parts - 1
			},
			func(src, dst int) CrossPost { return eng.Boundary(src, dst) })
	}
	a := newCollector(net.SchedulerFor("a"), "a")
	b := newCollector(net.SchedulerFor("b"), "b")
	l := net.Connect(a, 0, b, 0, cfg)

	const n = 600
	const spacing = 20 * time.Microsecond
	for i := 0; i < n; i++ {
		i := i
		a.sched.At(time.Duration(i)*spacing, func() {
			p := testPacket(100)
			p.Meta.UID = uint64(i)
			a.ports.Send(0, p)
		})
	}
	// Flap squarely inside the send train: the GE chain must not consume
	// draws while the link is down (Send refuses before the pipeline
	// runs), so after heal it resumes from the exact pre-flap state in
	// every engine.
	l.ScheduleDown(4*time.Millisecond, true)
	l.ScheduleDown(7*time.Millisecond, false)

	run = func() {
		if eng != nil {
			eng.SetLookahead(net.MinCrossDelay())
			eng.RunUntil(50 * time.Millisecond)
		} else {
			net.Sched.RunUntil(50 * time.Millisecond)
		}
	}
	result = func() (impairRun, LinkStats) {
		var r impairRun
		for k, p := range b.got {
			r.uids = append(r.uids, p.Meta.UID)
			r.at = append(r.at, b.at[k])
		}
		return r, l.Stats(0)
	}
	return run, result
}

// TestImpairChaosFlapResume is the impairment × chaos regression: a link
// flapping mid-GE-burst must drop its down-window traffic to Drops (not
// the loss model), then resume the loss-state machine deterministically —
// bit-identical across the serial engine and partitioned runs at 2 and 4
// domains.
func TestImpairChaosFlapResume(t *testing.T) {
	sRun, sRes := buildImpairFlap(0)
	sRun()
	ref, refStats := sRes()
	if len(ref.uids) == 0 {
		t.Fatal("serial reference delivered nothing")
	}
	if refStats.Drops == 0 {
		t.Fatal("flap window dropped nothing: down toggle did not land mid-run")
	}
	if refStats.ImpairDrops == 0 {
		t.Fatal("GE stage lost nothing: impairment inactive")
	}

	for _, parts := range []int{2, 4} {
		pRun, pRes := buildImpairFlap(parts)
		pRun()
		got, gotStats := pRes()
		if !reflect.DeepEqual(ref.uids, got.uids) || !reflect.DeepEqual(ref.at, got.at) {
			t.Fatalf("parts=%d: delivery timeline diverges from serial (%d vs %d arrivals)",
				parts, len(got.uids), len(ref.uids))
		}
		if refStats != gotStats {
			t.Fatalf("parts=%d: stats diverge: serial %+v vs partitioned %+v",
				parts, refStats, gotStats)
		}
	}
}
