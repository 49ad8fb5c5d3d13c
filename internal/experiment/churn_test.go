package experiment

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// TestLibmPinned pins the math.Pow call behind churn's Pareto sizes to
// the bits it returns on amd64. The standard library implements it per
// architecture and does not promise the same bits everywhere; a machine
// where this fails cannot reproduce the churn digests, and the call
// needs a repo-local replacement.
func TestLibmPinned(t *testing.T) {
	for _, c := range []struct {
		x    float64
		bits uint64
	}{
		{1, 0x3ff0000000000000},
		{0.999999999, 0x3fefffffffa45fc1},
		{0.9, 0x3fedd455a8c7be57},
		{0.75, 0x3fea6a58d55e307c},
		{0.5, 0x3fe428a2f98d728b},
		{0.3333333333333333, 0x3fdec49b0c1853f4},
		{0.1, 0x3fcb93a6cec0b3b2},
		{0.01, 0x3fa7c3d2c4d63ff7},
		{1e-06, 0x3f1a36e2eb1c432f},
		{1e-12, 0x3e45798ee2308c3f},
		{0x1p-52, 0x3dc428a2f98d728d},
		{0x1p-53, 0x3db965fea53d6e43},
		{0.123456789, 0x3fcfbc6fc3ee3779},
		{0.987654321, 0x3fefbc6fc72a45ad},
	} {
		const alpha = paretoAlpha
		if got := math.Float64bits(math.Pow(c.x, 1/alpha)); got != c.bits {
			t.Errorf("math.Pow(%v, 1/%v) = %#016x, want %#016x", c.x, alpha, got, c.bits)
		}
	}
}

func quickChurn() (Params, HybridParams) {
	p := DefaultParams().Quick()
	hp := DefaultHybridParams()
	hp.Duration = 200 * time.Millisecond
	hp.Epoch = 5 * time.Millisecond
	hp.ChurnArrivals = 8_000
	hp.ChurnMeanBytes = 20_000
	hp.ChurnParetoFrac = 0.3
	return p, hp
}

// TestChurnLifecycleAccounting pins the engine's bookkeeping: every
// arrival is either naturally departed or alive at the end, and arms one
// departure event that has fired or is still armed; recycling actually
// happens under sustained churn; and the drained run retires every
// delivered bit.
func TestChurnLifecycleAccounting(t *testing.T) {
	p, hp := quickChurn()
	r := RunChurn(p, hp)
	if r.Arrivals == 0 {
		t.Fatal("no arrivals")
	}
	if r.Arrivals != r.Departures+uint64(r.EndLive) {
		t.Fatalf("lifecycle leak: %d arrivals vs %d departures + %d live",
			r.Arrivals, r.Departures, r.EndLive)
	}
	if r.Departures == 0 {
		t.Fatal("no flow completed within the run")
	}
	if r.WheelExpired < r.Departures {
		t.Fatalf("%d departure events fired for %d departures", r.WheelExpired, r.Departures)
	}
	if r.WheelExpired+uint64(r.WheelPending) != r.Arrivals {
		t.Fatalf("%d departure events fired and %d armed for %d arrivals", r.WheelExpired, r.WheelPending, r.Arrivals)
	}
	if r.Recycled == 0 {
		t.Fatal("free list never used despite sustained churn")
	}
	if r.PeakLive < r.EndLive {
		t.Fatalf("peak live %d below end live %d", r.PeakLive, r.EndLive)
	}
	if r.DeliveredBits <= 0 {
		t.Fatalf("delivered bits = %v", r.DeliveredBits)
	}
	if r.Settles == 0 || r.ComponentsSolved == 0 {
		t.Fatalf("allocator idle: settles=%d components=%d", r.Settles, r.ComponentsSolved)
	}
	// Expected arrivals = rate × duration, exact up to the last wave's
	// fractional carry.
	want := hp.ChurnArrivals * hp.Duration.Seconds()
	if diff := float64(r.Arrivals) - want; diff > 1 || diff < -float64(hp.ChurnArrivals)*(hp.Epoch/churnWavesPerEpoch).Seconds()-1 {
		t.Fatalf("arrivals %d, want ~%.0f", r.Arrivals, want)
	}
}

// TestChurnLifetimeSaturates: at FlowDemand 0 every drawn lifetime is
// +Inf, which must saturate to "never departs" on every architecture
// instead of converting to whatever the machine makes of it (amd64 once
// turned it into MinInt64, and so the 1 µs floor).
func TestChurnLifetimeSaturates(t *testing.T) {
	p, hp := quickChurn()
	hp.FlowDemand = 0
	r := RunChurn(p, hp)
	if r.Arrivals == 0 {
		t.Fatal("no arrivals")
	}
	if r.Departures != 0 || r.EndLive != int(r.Arrivals) {
		t.Fatalf("%d of %d zero-demand flows departed naturally (%d live at the end), want none",
			r.Departures, r.Arrivals, r.EndLive)
	}
}

// TestChurnSeedSensitivity checks the workload is actually seeded:
// different seeds draw different endpoint/size streams.
func TestChurnSeedSensitivity(t *testing.T) {
	p, hp := quickChurn()
	a := RunChurn(p, hp)
	p.Seed = 7
	b := RunChurn(p, hp)
	if a.Digest == b.Digest {
		t.Fatal("digest insensitive to seed")
	}
}

// TestChurnKindRuns covers the sweep-unit surface.
func TestChurnKindRuns(t *testing.T) {
	p := DefaultParams().Quick()
	res := Run(KindChurn, p, Sizing{}, ScenCentral3, 1)
	if res.Kind != "churn" {
		t.Fatalf("kind = %q", res.Kind)
	}
	if res.Metrics["churn_arrivals"] == 0 || res.Metrics["lifecycle_events_per_sim_s"] == 0 {
		t.Fatalf("metrics missing: %v", res.Metrics)
	}
	if _, err := ParseKind("churn"); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkChurnRun prices churn's walk plus arrival path per arrival, at
// the bench's churn_fluid scale: one arity-60 run of 400k arrivals per
// simulated second, serial settle, 100 ms simulated. Its hot set (about
// 8,000 live flows and the directions they cross) is several times a
// 2 MB L2, so a record layout shows here in its cache misses; the
// 512-flow BenchmarkFluidChurnEpoch runs in cache and cannot show them.
func BenchmarkChurnRun(b *testing.B) {
	p := DefaultParams()
	hp := DefaultHybridParams()
	hp.Arity, hp.FlowDemand = 60, 15e6
	hp.Duration, hp.Epoch = 100*time.Millisecond, 10*time.Millisecond
	hp.ChurnArrivals, hp.ChurnMeanBytes, hp.ChurnParetoFrac, hp.ChurnCrossFrac = 400_000, 37_500, 0.3, 0.02
	var arrivals uint64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arrivals += RunChurn(p, hp).Arrivals
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(arrivals), "ns/arrival")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(arrivals), "allocs/arrival")
}
