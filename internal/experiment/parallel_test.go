package experiment

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"netco/internal/core"
	"netco/internal/openflow"
	"netco/internal/traffic"
)

// The differential determinism suite for what is not a registry row: the
// parallel engine must produce byte-identical observations to the serial
// engine on the multipath network and for flow-expiry timers, and its
// own counters must add up. Every registry row's determinism is
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
		r, mp, h1, h2 := buildVirtualNet(p, 3, false, nil)
		defer mp.Close()
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

// TestFlowExpiryIdenticalAcrossPartitions runs per-entry flow-expiry
// timers on the partitioned engine's per-domain schedulers: timed rules
// on the three Central3 routers — an idle timeout kept alive by ping
// traffic, two hard timeouts sharing one deadline, an idle/hard mix —
// must report the same FlowRemoved sequence, at the same virtual times,
// as the serial engine.
func TestFlowExpiryIdenticalAcrossPartitions(t *testing.T) {
	base := DefaultParams().Quick()
	removals := func(p Params) string {
		tb := p.Build(ScenCentral3)
		defer tb.Close()
		logs := make([]string, len(tb.Routers))  // one per router: each domain appends only its own
		permanent := tb.Routers[0].Table().Len() // the combiner's own rules
		for i, r := range tb.Routers {
			tbl, sched := r.Table(), r.Scheduler()
			tbl.OnRemoved = func(e *openflow.FlowEntry, why openflow.RemovedReason) {
				logs[i] += fmt.Sprintf("r%d cookie=%d reason=%d at=%v pkts=%d\n", i, e.Cookie, why, sched.Now(), e.Packets)
			}
			tbl.Add(&openflow.FlowEntry{
				Cookie: 1, Priority: 200, IdleTimeout: 25 * time.Millisecond,
				Match:   openflow.MatchAll().WithDlDst(tb.H2.MAC()),
				Actions: []openflow.Action{openflow.Output(core.RouterPortRight)},
			})
			tbl.Add(&openflow.FlowEntry{Cookie: 2, Priority: 1, HardTimeout: 60 * time.Millisecond, Match: openflow.MatchAll().WithInPort(40)})
			tbl.Add(&openflow.FlowEntry{Cookie: 3, Priority: 1, HardTimeout: 60 * time.Millisecond, Match: openflow.MatchAll().WithInPort(41)})
			tbl.Add(&openflow.FlowEntry{
				Cookie: 4, Priority: 1, IdleTimeout: 25 * time.Millisecond, HardTimeout: 40 * time.Millisecond,
				Match: openflow.MatchAll().WithInPort(42),
			})
		}
		pinger := traffic.NewPinger(tb.H1, tb.H2.Endpoint(0), traffic.PingerConfig{Count: 8, Interval: 10 * time.Millisecond, ID: 1})
		pinger.Run(func(traffic.PingResult) {})
		tb.Runner.RunFor(300 * time.Millisecond)
		out := ""
		for i, r := range tb.Routers {
			if n := r.Table().Len(); n != permanent {
				t.Errorf("partitions=%d: router %d holds %d rules after every timeout, want %d", p.Partitions, i, n, permanent)
			}
			out += logs[i]
		}
		return out
	}

	base.Partitions = 1
	ref := removals(base)
	if n := strings.Count(ref, "\n"); n != 12 {
		t.Fatalf("serial run reported %d removals, want 4 per router:\n%s", n, ref)
	}
	for _, procs := range []int{1, 4} {
		p := base
		p.Partitions = 4
		var got string
		withGOMAXPROCS(procs, func() { got = removals(p) })
		if got != ref {
			t.Errorf("partitions=4 GOMAXPROCS=%d: FlowRemoved sequence diverged from serial\n got:\n%swant:\n%s", procs, got, ref)
		}
	}
}
