package par

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"netco/internal/sim"
)

// The model under test is a bidirectional token ring: every node relays
// tokens to both neighbours over keyed channels with a fixed transmit +
// propagation cost, mimicking how netem schedules link deliveries. Two
// counter-rotating token pairs are launched so that deliveries from
// *different* channels collide at the same node at the same nanosecond —
// the tie the (band, key) ordering must break identically in serial and
// parallel runs.
const (
	ringDelay = 200 * time.Microsecond
	ringTx    = 30 * time.Microsecond
	ringHops  = 40
)

type postFunc func(at time.Duration, ch, seq uint64, fn sim.CallFunc, a0, a1 any, n int)

type ringNode struct {
	id           int
	sched        *sim.Scheduler
	fnext, bnext *ringNode
	fch, bch     uint64
	fseq, bseq   uint64
	fout, bout   postFunc
	log          []ev
}

type ev struct {
	at  time.Duration
	hop int
	fwd bool
}

func (nd *ringNode) send(fwd bool, hop int) {
	if fwd {
		s := nd.fseq
		nd.fseq++
		nd.fout(nd.sched.Now()+ringDelay, nd.fch, s, deliver, nd.fnext, true, hop)
	} else {
		s := nd.bseq
		nd.bseq++
		nd.bout(nd.sched.Now()+ringDelay, nd.bch, s, deliver, nd.bnext, false, hop)
	}
}

func deliver(a0, a1 any, hop int) {
	nd := a0.(*ringNode)
	fwd := a1.(bool)
	nd.log = append(nd.log, ev{at: nd.sched.Now(), hop: hop, fwd: fwd})
	if hop >= ringHops {
		return
	}
	nd.sched.At(nd.sched.Now()+ringTx, func() { nd.send(fwd, hop+1) })
}

type ring struct {
	nodes  []*ringNode
	runner sim.Runner
}

// buildRing wires n nodes over parts domains (contiguous blocks); parts
// <= 0 builds the serial reference on a single scheduler. Channel ids
// and per-channel sequence numbers are assigned identically in both
// modes, exactly as netem does for links.
func buildRing(n, parts, workers int) *ring {
	r := &ring{}
	scheds := make([]*sim.Scheduler, n)
	var eng *Engine
	dom := func(i int) int { return i * parts / n }
	if parts <= 0 {
		s := sim.NewScheduler()
		r.runner = s
		for i := range scheds {
			scheds[i] = s
		}
		dom = func(int) int { return 0 }
	} else {
		eng = New(parts, workers)
		eng.SetLookahead(ringDelay)
		r.runner = eng
		domains := eng.Schedulers()
		for i := range scheds {
			scheds[i] = domains[dom(i)]
		}
	}
	for i := 0; i < n; i++ {
		r.nodes = append(r.nodes, &ringNode{id: i, sched: scheds[i]})
	}
	post := func(src, dst int) postFunc {
		if dom(src) == dom(dst) {
			s := scheds[dst]
			return func(at time.Duration, ch, seq uint64, fn sim.CallFunc, a0, a1 any, n int) {
				s.AtCallChan(at, ch, seq, fn, a0, a1, n)
			}
		}
		return eng.Boundary(dom(src), dom(dst)).Post
	}
	for i, nd := range r.nodes {
		f, bk := (i+1)%n, (i-1+n)%n
		nd.fnext, nd.bnext = r.nodes[f], r.nodes[bk]
		nd.fch, nd.bch = uint64(i), uint64(n+i)
		nd.fout, nd.bout = post(i, f), post(i, bk)
	}
	return r
}

func (r *ring) kick(start int, fwd bool) {
	nd := r.nodes[start]
	nd.sched.At(0, func() { nd.send(fwd, 1) })
}

func (r *ring) launch() {
	r.kick(0, true)
	r.kick(0, false)
	r.kick(3, true)
	r.kick(3, false)
}

func (r *ring) logs() [][]ev {
	out := make([][]ev, len(r.nodes))
	for i, nd := range r.nodes {
		out[i] = nd.log
	}
	return out
}

// drive advances in uneven chunks, one of which lands exactly on a
// delivery time (first-hop arrival at ringDelay + ringTx + ringDelay),
// so epoch restarts and exact-deadline handoffs are both exercised.
func drive(r sim.Runner) {
	r.RunUntil(ringDelay + ringTx + ringDelay)
	r.RunFor(3 * time.Millisecond)
	r.RunUntil(12 * time.Millisecond)
}

// ways are the settings of the engine's choice every determinism test
// runs under: left to the engine, pinned to either way, and changing
// ways a few epochs into the run (the ring's runs are shorter than one
// stretch, so left free they stay on the workers).
var ways = []struct {
	name string
	set  func(*Engine)
}{
	{"free", func(*Engine) {}},
	{"workers", func(e *Engine) { e.choice = choice{cur: onWorkers, pinned: true} }},
	{"inline", func(e *Engine) { e.choice = choice{cur: inline, pinned: true} }},
	{"turn", func(e *Engine) { e.choice.left = 5 }},
}

// checkWay asserts the engine's counters agree with the way it was
// pinned to; eng must have run with more than one worker.
func checkWay(t *testing.T, eng *Engine, name string) {
	t.Helper()
	st := eng.Stats()
	switch {
	case st.Epochs == 0:
		t.Error("no epochs counted")
	case name == "workers" && st.InlineEpochs != 0:
		t.Errorf("pinned to the workers, yet %d of %d epochs ran inline", st.InlineEpochs, st.Epochs)
	case name == "inline" && st.InlineEpochs != st.Epochs:
		t.Errorf("pinned inline, yet only %d of %d epochs ran inline", st.InlineEpochs, st.Epochs)
	case name == "turn" && (st.InlineEpochs == 0 || st.InlineEpochs == st.Epochs):
		t.Errorf("%d of %d epochs ran inline, want some on each side of the turn", st.InlineEpochs, st.Epochs)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	const n = 12
	serial := buildRing(n, 0, 0)
	serial.launch()
	drive(serial.runner)
	want := serial.logs()

	// The test is only meaningful if same-time deliveries on different
	// channels actually occur — check the counter-rotating tokens met.
	collided := false
	for _, l := range want {
		for i := 1; i < len(l); i++ {
			if l[i].at == l[i-1].at {
				collided = true
			}
		}
	}
	if !collided {
		t.Fatal("model produced no same-time deliveries; tie-order coverage lost")
	}

	for _, way := range ways {
		for _, parts := range []int{1, 2, 3, 4, 6} {
			for _, workers := range []int{1, 2, 4} {
				name := fmt.Sprintf("%s parts=%d workers=%d", way.name, parts, workers)
				p := buildRing(n, parts, workers)
				way.set(p.runner.(*Engine))
				p.launch()
				drive(p.runner)
				if got := p.logs(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: node logs diverge from serial", name)
				}
				if got, wantN := p.runner.Executed(), serial.runner.Executed(); got != wantN {
					t.Errorf("%s: executed %d events, serial %d", name, got, wantN)
				}
				if p.runner.Live() != 0 {
					t.Errorf("%s: %d live events after drain", name, p.runner.Live())
				}
				if got, wantT := p.runner.Now(), serial.runner.Now(); got != wantT {
					t.Errorf("%s: clock %v, serial %v", name, got, wantT)
				}
				if parts > 1 && workers > 1 {
					checkWay(t, p.runner.(*Engine), way.name)
				}
			}
		}
	}
}

// TestRunDrains: a partitioned run to the serial run's last deadline
// executes every event the serial Run does and leaves nothing live.
func TestRunDrains(t *testing.T) {
	serial := buildRing(12, 0, 0)
	serial.launch()
	serial.runner.(*sim.Scheduler).Run()
	want := serial.logs()

	for _, way := range ways {
		p := buildRing(12, 3, 2)
		eng := p.runner.(*Engine)
		way.set(eng)
		p.launch()
		eng.RunUntil(serial.runner.Now())
		if got := p.logs(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: RunUntil(end): node logs diverge from serial", way.name)
		}
		if p.runner.Live() != 0 {
			t.Errorf("%s: RunUntil(end): %d live events left", way.name, p.runner.Live())
		}
		if got, wantN := p.runner.Executed(), serial.runner.Executed(); got != wantN {
			t.Errorf("%s: RunUntil(end): executed %d events, serial %d", way.name, got, wantN)
		}
		checkWay(t, eng, way.name)
	}
}

// TestNoGoroutineOutlivesARun: the workers are joined before a run
// returns, whichever way its epochs executed.
func TestNoGoroutineOutlivesARun(t *testing.T) {
	for _, way := range ways {
		p := buildRing(12, 3, 3)
		way.set(p.runner.(*Engine))
		p.launch()
		before := runtime.NumGoroutine()
		p.runner.RunFor(2 * time.Millisecond)
		// A joined worker has signalled its exit but may still be on its
		// way out of the runtime's count — on another P, so yielding this
		// one does not hurry it: poll against a deadline. Fewer than
		// before is an earlier run's worker completing the same exit.
		after := runtime.NumGoroutine()
		for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
			after = runtime.NumGoroutine()
		}
		if after > before {
			t.Errorf("%s: %d goroutines after RunFor, %d before", way.name, after, before)
		}
	}
}

// TestIdleSkip pairs a tiny lookahead with events seconds apart: without
// the jump-to-next-deadline shortcut RunUntil would grind through ~4e6
// empty epochs and time out.
func TestIdleSkip(t *testing.T) {
	eng := New(2, 2)
	eng.SetLookahead(time.Microsecond)
	b01 := eng.Boundary(0, 1)
	b10 := eng.Boundary(1, 0)
	done := false
	var hop2 sim.CallFunc = func(any, any, int) { done = true }
	hop1 := func(any, any, int) { b10.Post(3*time.Second, 2, 0, hop2, nil, nil, 0) }
	eng.Schedulers()[0].At(time.Second, func() {
		b01.Post(2*time.Second, 1, 0, hop1, nil, nil, 0)
	})
	eng.RunUntil(4 * time.Second)
	if !done {
		t.Fatal("cross-domain chain did not complete")
	}
	if got := eng.Executed(); got != 3 {
		t.Fatalf("executed %d events, want 3", got)
	}
}

func TestHandoffLandsExactlyOnDeadline(t *testing.T) {
	eng := New(2, 2)
	eng.SetLookahead(200 * time.Microsecond)
	b := eng.Boundary(0, 1)
	s1 := eng.Schedulers()[1]
	var got []time.Duration
	eng.Schedulers()[0].At(100*time.Microsecond, func() {
		b.Post(300*time.Microsecond, 0, 0, func(any, any, int) {
			got = append(got, s1.Now())
		}, nil, nil, 0)
	})
	eng.RunUntil(300 * time.Microsecond)
	if len(got) != 1 || got[0] != 300*time.Microsecond {
		t.Fatalf("handoff on the RunUntil deadline fired %v, want exactly once at 300µs", got)
	}
	if eng.Live() != 0 {
		t.Fatalf("%d live events left", eng.Live())
	}
}

// TestOversizedLookaheadPanics: a lookahead above a cross link's true
// delay lets an event hand off into the epoch that is executing it. The
// barrier would inject that late and diverge from serial without a
// sign, so Post refuses it, naming the channel, the deliver time and the
// epoch's end. One worker, so the panic unwinds through RunUntil.
func TestOversizedLookaheadPanics(t *testing.T) {
	cases := []struct {
		name                     string
		lookahead, fire, deliver time.Duration
		until                    time.Duration
		want                     []string // substrings of the panic; nil: no panic
	}{
		// The epoch is [100µs, 600µs); the link's real delay is 200µs.
		{"inside the epoch", 500 * time.Microsecond, 100 * time.Microsecond, 300 * time.Microsecond, time.Millisecond,
			[]string{"channel 7", "300µs", "600µs"}},
		{"on the epoch's end", 500 * time.Microsecond, 100 * time.Microsecond, 600 * time.Microsecond, time.Millisecond, nil},
		// The closing pass of RunUntil(t) executes the events at t, so a
		// zero-delay hand-off from one of them is already late.
		{"at t in the closing pass", 500 * time.Microsecond, time.Millisecond, time.Millisecond, time.Millisecond,
			[]string{"channel 7", "1ms"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := New(2, 1)
			eng.SetLookahead(c.lookahead)
			b := eng.Boundary(0, 1)
			eng.Schedulers()[0].At(c.fire, func() {
				b.Post(c.deliver, 7, 0, func(any, any, int) {}, nil, nil, 0)
			})
			defer func() {
				r := recover()
				if c.want == nil {
					if r != nil {
						t.Fatalf("unexpected panic: %v", r)
					}
					return
				}
				msg := fmt.Sprint(r)
				for _, w := range c.want {
					if r == nil || !strings.Contains(msg, w) {
						t.Fatalf("panic %q, want one naming %q", msg, c.want)
					}
				}
			}()
			eng.RunUntil(c.until)
			if got := eng.Stats().Handoffs; got != 1 {
				t.Fatalf("%d hand-offs counted, want 1", got)
			}
		})
	}
}

func TestBoundaryWithoutLookaheadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunUntil with wired boundaries and zero lookahead should panic")
		}
	}()
	eng := New(2, 1)
	eng.Boundary(0, 1)
	eng.RunUntil(time.Millisecond)
}

// bounce is a token crossing between the two domains of an engine on
// every hop, through Boundary posts that allocate nothing once warm.
type bounce struct {
	scheds []*sim.Scheduler
	out    [2]Boundary
	seq    uint64
	hops   int
}

func bounceHop(a0, _ any, at int) {
	b := a0.(*bounce)
	b.hops++
	b.seq++
	b.out[at].Post(b.scheds[at].Now()+ringDelay, 0, b.seq, bounceHop, b, nil, 1-at)
}

// TestRunForAllocatesNothing: a warm run on two workers reuses the
// Engine's hand-off channels and starts its workers without allocating.
func TestRunForAllocatesNothing(t *testing.T) {
	eng := New(2, 2)
	eng.SetLookahead(ringDelay)
	eng.choice = choice{cur: onWorkers, pinned: true}
	b := &bounce{scheds: eng.Schedulers(), out: [2]Boundary{eng.Boundary(0, 1), eng.Boundary(1, 0)}}
	b.scheds[0].AtCall(0, bounceHop, b, nil, 0)
	eng.RunFor(20 * ringDelay)
	before, epochs := b.hops, eng.Stats().Epochs
	if avg := testing.AllocsPerRun(50, func() { eng.RunFor(10 * ringDelay) }); avg != 0 {
		t.Fatalf("a warm two-worker RunFor allocates %.1f objects, want 0", avg)
	}
	if b.hops-before < 50*10 || eng.Stats().Epochs-epochs < 50*10 {
		t.Fatalf("%d hops in %d epochs over 51 runs: the token is not crossing on the workers",
			b.hops-before, eng.Stats().Epochs-epochs)
	}
}
