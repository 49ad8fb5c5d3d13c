package experiment

import (
	"testing"
	"time"
)

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
// arrival is either naturally departed (through the wheel) or alive at
// the end; recycling actually happens under sustained churn; and the
// drained run retires every delivered bit.
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
		t.Fatalf("wheel fired %d entries for %d departures", r.WheelExpired, r.Departures)
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

// TestChurnDigestAcrossSettleWorkers pins the incremental parallel
// settle to the FullResettle from-scratch oracle, with cross-pod flows
// merging allocator components. (Settle-worker counts against each other
// are the churn row of TestDeterminismMatrix.)
func TestChurnDigestAcrossSettleWorkers(t *testing.T) {
	p, hp := quickChurn()
	hp.ChurnCrossFrac = 0.1
	base := RunChurn(p, hp)
	if base.Digest == "" {
		t.Fatal("empty digest")
	}
	hp.SettleWorkers = 4
	hp.FullResettle = true
	r := RunChurn(p, hp)
	if r.Digest != base.Digest {
		t.Fatalf("digest diverged under the FullResettle oracle:\nincremental: %s\noracle:      %s",
			base.Digest, r.Digest)
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
