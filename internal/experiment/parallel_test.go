package experiment

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"netco/internal/traffic"
)

// The differential determinism suite for what is not a registry row: the
// parallel engine must produce byte-identical observations to the serial
// engine on the multipath network, and its own counters must add up. Every registry row's determinism is
// TestDeterminismMatrix (matrix_test.go).

func withGOMAXPROCS(n int, f func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

// TestScaleDeterminismAcrossPartitions is the engine-stats half of the
// fat-tree determinism check; the partition-count × GOMAXPROCS walk of
// the same workload is the scale row of TestDeterminismMatrix.
func TestScaleDeterminismAcrossPartitions(t *testing.T) {
	base := DefaultParams().Quick()
	const arity = 4
	base.Partitions = 1

	// On one P the engine's default is one worker: every epoch inline.
	p := base
	p.Partitions = 4
	var got ScaleResult
	withGOMAXPROCS(1, func() { got = RunScale(p, arity, 60*time.Millisecond) })
	if st := got.Engine; st.Epochs == 0 || st.InlineEpochs != st.Epochs {
		t.Errorf("partitions=4 on one P: %d of %d epochs inline, want all", st.InlineEpochs, st.Epochs)
	}

	// Long enough for the engine to finish its opening stretch on the
	// workers, try the other way, run a long stretch in whichever it
	// measured cheaper and try again: epochs execute both ways, and the
	// engine changes between them mid-run, under the same digest. Which
	// way won is the wall clock's business and is not asserted.
	const long = 600 * time.Millisecond
	ref := RunScale(base, arity, long)
	p = base
	p.Partitions, p.Workers = 2, 2
	withGOMAXPROCS(2, func() { got = RunScale(p, arity, long) })
	if got.Digest != ref.Digest {
		t.Errorf("long run: digest diverged from serial\n got: %s\nwant: %s", got.Digest, ref.Digest)
	}
	st := got.Engine
	if st.InlineEpochs == 0 || st.InlineEpochs == st.Epochs {
		t.Errorf("long run: %d of %d epochs inline, want some each way", st.InlineEpochs, st.Epochs)
	}
	if got, want := st.DomainEvents[0]+st.DomainEvents[1], ref.Events; got != want {
		t.Errorf("long run: domains executed %d events, serial %d", got, want)
	}
	if st.Handoffs == 0 {
		t.Error("long run: no hand-offs counted")
	}
}

func TestVirtualDeterminismAcrossPartitions(t *testing.T) {
	base := DefaultParams().Quick()
	base.UDPDuration = 150 * time.Millisecond

	digest := func(p Params) string {
		w, mp, h1, h2 := buildVirtualNet(p, 3, false, nil)
		defer mp.Close()
		r := w.Runner
		sink := traffic.NewUDPSink(h2, 5002)
		src := traffic.NewUDPSource(h1, 4002, h2.Endpoint(5002),
			traffic.UDPSourceConfig{Rate: 60e6, PayloadSize: 700})
		src.Start()
		r.RunFor(p.UDPDuration)
		src.Stop()
		r.RunFor(50 * time.Millisecond)
		st := sink.Stats()
		return fmt.Sprintf("sent=%d u=%d b=%d d=%d r=%d sup=%d exec=%d",
			src.Sent, st.Unique, st.UniqueBytes, st.Duplicates, st.Reordered,
			mp.Right.EngineStats().Suppressed, r.Executed())
	}

	base.Partitions = 0
	ref := digest(base)
	for _, parts := range []int{1, 2, 4, 8} {
		for _, procs := range []int{1, 4} {
			if parts == 1 && procs == 4 {
				continue
			}
			p := base
			p.Partitions = parts
			var got string
			withGOMAXPROCS(procs, func() { got = digest(p) })
			if got != ref {
				t.Errorf("partitions=%d GOMAXPROCS=%d: diverged\n got: %s\nwant: %s", parts, procs, got, ref)
			}
		}
	}
}
