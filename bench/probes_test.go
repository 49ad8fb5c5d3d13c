package main

import (
	"errors"
	"testing"

	"netco/internal/netem"
)

// capturedRound is a tiny traced round: real frames and real tables.
func capturedRound(t *testing.T, name string) round {
	t.Helper()
	r := tinyRound(t, name, roundCfg{seed: 1, traced: true})
	if len(r.frames) == 0 {
		t.Fatalf("%s: traced round captured no frames", name)
	}
	return r
}

// The repo's own guards say these three paths allocate nothing in steady
// state; a probe that reports otherwise is timing its own set-up.
func TestProbesReportZeroAllocs(t *testing.T) {
	const tol = 0.01 // runtime background allocations per probed operation
	r := capturedRound(t, "central3_udp")
	if c := probeSimFire(r.live); c.allocs > tol || c.ns <= 0 {
		t.Errorf("sim.at_fire: %.3f allocs/op, %.1f ns", c.allocs, c.ns)
	}
	cc, err := probeCore(r.frames)
	if err != nil {
		t.Fatal(err)
	}
	if c := cc.ingestPerCopy; c.allocs > tol || c.ns <= 0 {
		t.Errorf("core.ingest: %.3f allocs/copy, %.1f ns", c.allocs, c.ns)
	}
	for _, name := range []string{"central3_udp", "fattree_udp"} {
		c, err := probeLookup(capturedRound(t, name).frames)
		if err != nil {
			t.Fatal(err)
		}
		if c.allocs > tol || c.ns <= 0 {
			t.Errorf("openflow.lookup on %s: %.3f allocs/op, %.1f ns", name, c.allocs, c.ns)
		}
	}
}

// Replayed frames get fresh IP IDs, so the probe sees the microflow hit
// rate real traffic sees, not a repeated packet's.
func TestLookupProbeKeepsRealHitRate(t *testing.T) {
	r := capturedRound(t, "fattree_udp")
	before := r.pn.snapshot()
	if _, err := probeLookup(r.frames); err != nil {
		t.Fatal(err)
	}
	d := r.pn.snapshot().sub(before)
	if d[cLookups] != 2*probeOps {
		t.Fatalf("probe did %d lookups, want %d", d[cLookups], 2*probeOps)
	}
	if rate := float64(d[cMicroHits]) / float64(d[cLookups]); rate > 0.01 {
		t.Fatalf("probe's microflow hit rate %.3f; real traffic's is 0", rate)
	}
}

func TestProbesRefuseEmptyCapture(t *testing.T) {
	var trunk netem.LinkConfig
	probes := map[string]func() error{
		"netem.link_send": func() error { _, err := probeLinkSend(trunk, nil); return err },
		"packet":          func() error { _, err := probePacket(nil); return err },
		"openflow.lookup": func() error { _, err := probeLookup(nil); return err },
		"switching":       func() error { _, err := probePipeline(trunk, nil); return err },
		"core.ingest":     func() error { _, err := probeCore(nil); return err },
	}
	for name, probe := range probes {
		if err := probe(); !errors.Is(err, errEmptyCapture) {
			t.Errorf("%s on an empty capture: got %v, want errEmptyCapture", name, err)
		}
	}
}
