package experiment

import (
	"testing"
	"time"
)

// TestRunChaosMasksSingleCrash: a k=3 combiner masks one router's
// cold-crash completely — delivery stays (nearly) perfect through the
// outage and the probe confirms recovery right after the heal.
func TestRunChaosMasksSingleCrash(t *testing.T) {
	p := DefaultParams().Quick()
	p.ChaosCrashes = 1
	r := RunChaos(p, ScenCentral3)

	if r.Crashes != 1 {
		t.Fatalf("scheduled %d crashes, want 1", r.Crashes)
	}
	if r.Sent == 0 {
		t.Fatal("measurement stream sent nothing")
	}
	if r.DeliveredFrac < 0.99 {
		t.Fatalf("delivered %.4f of datagrams under a single masked crash, want >= 0.99 (%d/%d)",
			r.DeliveredFrac, r.Delivered, r.Sent)
	}
	if !r.Recovered {
		t.Fatal("probe stream never delivered after the last heal")
	}
	if r.Recovery < 0 || r.Recovery > 50*time.Millisecond {
		t.Fatalf("recovery = %v, want within (0, 50ms]", r.Recovery)
	}
	if r.Dups != 0 {
		t.Fatalf("%d duplicate deliveries leaked through the combiner", r.Dups)
	}
}

// TestRunChaosFlapAndCompareRestart exercises the full knob set — two
// crashes, a flapping trunk and a compare bounce — on a k=5 combiner,
// which still masks everything but the compare's own outage window.
func TestRunChaosFlapAndCompareRestart(t *testing.T) {
	p := DefaultParams().Quick()
	p.ChaosCrashes = 2
	p.ChaosFlapPeriod = 20 * time.Millisecond
	p.ChaosFlapCycles = 2
	p.ChaosCompareRestart = true
	r := RunChaos(p, ScenCentral5)

	if r.Crashes != 2 || r.FlapCycles == 0 {
		t.Fatalf("plan scheduled crashes=%d flaps=%d, want 2 and >0", r.Crashes, r.FlapCycles)
	}
	// The compare restart drops its window; everything else is masked.
	if r.DeliveredFrac < 0.8 {
		t.Fatalf("delivered %.4f, want >= 0.8 (%d/%d)", r.DeliveredFrac, r.Delivered, r.Sent)
	}
	if !r.Recovered {
		t.Fatal("probe stream never delivered after the last heal")
	}
}

// TestRunChaosDegradesGracefully: scenarios without a combiner (POX) or
// compare (Dup) skip the targets they lack but still crash routers.
func TestRunChaosDegradesGracefully(t *testing.T) {
	p := DefaultParams().Quick()
	p.ChaosCrashes = 1
	p.ChaosFlapPeriod = 20 * time.Millisecond
	p.ChaosCompareRestart = true
	for _, s := range []Scenario{ScenPOX3, ScenDup3, ScenLinespeed} {
		r := RunChaos(p, s)
		if r.Crashes != 1 {
			t.Errorf("%s: scheduled %d crashes, want 1", s, r.Crashes)
		}
		if r.Sent == 0 || r.Delivered == 0 {
			t.Errorf("%s: no traffic flowed (sent=%d delivered=%d)", s, r.Sent, r.Delivered)
		}
		if !r.Recovered {
			t.Errorf("%s: probe never delivered after the heal", s)
		}
	}
}

// TestRunKindChaos checks the sweep-facing wrapper emits the headline
// metrics.
func TestRunKindChaos(t *testing.T) {
	p := DefaultParams().Quick()
	res := Run(KindChaos, p, Sizing{}, ScenCentral3, 7)
	for _, key := range []string{"chaos_sent", "chaos_delivered", "delivered_frac", "chaos_crashes", "last_heal_ms"} {
		if _, ok := res.Metrics[key]; !ok {
			t.Errorf("metric %q missing from KindChaos result", key)
		}
	}
	if res.Metrics["delivered_frac"] < 0.99 {
		t.Errorf("delivered_frac = %v, want >= 0.99", res.Metrics["delivered_frac"])
	}
	if _, ok := res.Metrics["recovery_ms"]; !ok {
		t.Error("recovery_ms missing — probe did not recover")
	}
}
