package experiment

import (
	"fmt"
	"math"
	"testing"
	"time"
)

func quickHybrid() (Params, HybridParams) {
	p := DefaultParams().Quick()
	hp := DefaultHybridParams()
	hp.Duration = 300 * time.Millisecond
	hp.SwapAt = 150 * time.Millisecond
	return p, hp
}

// TestHybridDifferentialFidelity is the engine's core contract: a
// pure-packet rerun of the same scenario must observe bit-identical
// behaviour inside the packet-exact region, while the fluid model's
// off-region goodput stays within tolerance of the real packet streams.
func TestHybridDifferentialFidelity(t *testing.T) {
	p, hp := quickHybrid()

	hyb := RunHybrid(p, hp)
	hp.PacketFabric = true
	pure := RunHybrid(p, hp)

	if hyb.RegionDigest != pure.RegionDigest {
		t.Fatalf("compare-region observations diverged:\nhybrid: %s\npacket: %s", hyb.RegionDigest, pure.RegionDigest)
	}
	if hyb.Promotions != pure.Promotions || hyb.Demotions != pure.Demotions {
		t.Fatalf("promotion bookkeeping diverged: %d/%d vs %d/%d",
			hyb.Promotions, hyb.Demotions, pure.Promotions, pure.Demotions)
	}

	// Off-region goodput: the fluid model's analytic delivery vs what
	// real packet streams carried to real sinks. Start/stop
	// quantisation (epoch boundaries vs pacing ticks) and drain effects
	// bound the error.
	if hyb.BackgroundDeliveredBits <= 0 || pure.BackgroundDeliveredBits <= 0 {
		t.Fatalf("no background traffic delivered: hybrid=%v pure=%v",
			hyb.BackgroundDeliveredBits, pure.BackgroundDeliveredBits)
	}
	rel := math.Abs(hyb.BackgroundDeliveredBits-pure.BackgroundDeliveredBits) / pure.BackgroundDeliveredBits
	if rel > 0.1 {
		t.Fatalf("off-region goodput error %.1f%% exceeds tolerance: hybrid=%.0f pure=%.0f bits",
			rel*100, hyb.BackgroundDeliveredBits, pure.BackgroundDeliveredBits)
	}

	// The whole point: the hybrid run does far less work.
	if pure.Events <= hyb.Events {
		t.Fatalf("hybrid run executed more events than pure packet: %d vs %d", hyb.Events, pure.Events)
	}
}

// TestHybridEventReduction runs workloads shaped like the real thing
// (many fluid flows, few monitored) and pins the tier assignment
// exactly: the first CrossFlows flows (clamped to the flow count) are
// promoted from the start, and at SwapAt half of them are demoted while
// as many of the following flows are promoted in their place.
func TestHybridEventReduction(t *testing.T) {
	for _, c := range []struct {
		name                 string
		flowsPerHost, cross  int
		noSwap               bool
		wantCross, wantSwapN int
		minRatio             float64
	}{
		// 16 hosts × 8 flows; the event ratio depends on the
		// background:crossing mix, so only this shape holds the floor.
		{name: "swap", flowsPerHost: 8, cross: 2, wantCross: 2, wantSwapN: 1, minRatio: 20},
		{name: "no swap", flowsPerHost: 8, cross: 2, noSwap: true, wantCross: 2},
		// 16 flows: all of them monitored, none left to swap in.
		{name: "cross exceeds flows", flowsPerHost: 1, cross: 20, wantCross: 16},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, hp := quickHybrid()
			hp.FlowsPerHost, hp.CrossFlows = c.flowsPerHost, c.cross
			if c.noSwap {
				hp.SwapAt = 0
			}
			r := RunHybrid(p, hp)
			if r.EventRatio < c.minRatio {
				t.Fatalf("event ratio %.1fx below the %.0fx acceptance floor (events=%d projected=%.0f)",
					r.EventRatio, c.minRatio, r.Events, r.ProjectedPacketEvents)
			}
			if r.Settles == 0 {
				t.Fatal("fluid tier never settled")
			}
			if r.CrossFlows != c.wantCross {
				t.Fatalf("cross flows = %d, want %d", r.CrossFlows, c.wantCross)
			}
			if r.Promotions != uint64(c.wantCross+c.wantSwapN) || r.Demotions != uint64(c.wantSwapN) {
				t.Fatalf("promotions/demotions = %d/%d, want %d/%d",
					r.Promotions, r.Demotions, c.wantCross+c.wantSwapN, c.wantSwapN)
			}
			rates, goods := r.Hists["flow_rate_mbps"], r.Hists["flow_goodput_mbps"]
			if rates.N() == 0 || goods.N() == 0 {
				t.Fatal("hybrid histograms empty")
			}
		})
	}
}

func TestHybridKindRuns(t *testing.T) {
	p := DefaultParams().Quick()
	res := Run(KindHybrid, p, Sizing{}, ScenCentral3, 1)
	if res.Kind != "hybrid" {
		t.Fatalf("kind = %q", res.Kind)
	}
	if res.Metrics["hybrid_flows"] == 0 || res.Metrics["hybrid_events"] == 0 {
		t.Fatalf("metrics missing: %v", res.Metrics)
	}
	if len(res.Hists) != 4 {
		t.Fatalf("hists missing: %v", res.Hists)
	}
	if _, err := ParseKind("hybrid"); err != nil {
		t.Fatal(err)
	}
}

// TestHybridBuildBreakdownPopulated checks the build provenance fields
// the bench reports: phases are measured and sum to a sane total.
func TestHybridBuildBreakdownPopulated(t *testing.T) {
	p, hp := quickHybrid()
	r := RunHybrid(p, hp)
	if r.BuildTopoMS < 0 || r.BuildWireMS < 0 || r.BuildFlowsMS < 0 {
		t.Fatalf("negative build phase: topo=%v wire=%v flows=%v",
			r.BuildTopoMS, r.BuildWireMS, r.BuildFlowsMS)
	}
	if r.BuildTopoMS+r.BuildWireMS+r.BuildFlowsMS <= 0 {
		t.Fatal("build breakdown all zero — phases not measured")
	}
}

// TestHybridSinkPortsInjective pins RunHybrid's gw1 port plan: every
// expander sink up to its bound gets a port of its own, the last one
// 39999, and the expander count is clamped to that bound the way the
// monitored flows are clamped to the flow count.
func TestHybridSinkPortsInjective(t *testing.T) {
	owner := make(map[uint16]string, maxPreSinks)
	for i := 0; i < maxPreSinks; i++ {
		port, who := preSinkPort(i), fmt.Sprintf("expander %d", i)
		if prev, ok := owner[port]; ok {
			t.Fatalf("port %d given to %s and %s", port, prev, who)
		}
		owner[port] = who
	}
	if preSinkPort(7) != 30007 || preSinkPort(maxPreSinks-1) != 39999 {
		t.Fatal("ports that fit moved")
	}

	for _, c := range []struct {
		total, cross   int
		swap           bool
		wantX, wantSwp int
	}{
		{100, 8, true, 8, 4},
		{100, 8, false, 8, 0},
		{10, 8, true, 8, 2},
		{5, 8, true, 5, 0},
		{50_000, 9_000, true, 9_000, 1_000},
		{50_000, 12_000, true, maxPreSinks, 0},
		{50_000, 12_000, false, maxPreSinks, 0},
	} {
		x, swp := preProvisioned(c.total, c.cross, c.swap)
		if x != c.wantX || swp != c.wantSwp {
			t.Fatalf("preProvisioned(%d, %d, %v) = %d, %d; want %d, %d",
				c.total, c.cross, c.swap, x, swp, c.wantX, c.wantSwp)
		}
		if x+swp > maxPreSinks {
			t.Fatalf("preProvisioned(%d, %d, %v) provisions %d sinks", c.total, c.cross, c.swap, x+swp)
		}
	}
}
