package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// lockstepQueue is the surface TestQueueMatchesReference drives: the
// Scheduler and refQueue behind one shape, timer handles boxed.
type lockstepQueue interface {
	at(t time.Duration, fn func()) any
	atCall(t time.Duration, fn CallFunc, a0 any, n int) any
	atCallChan(t time.Duration, ch, seq uint64, fn CallFunc, a0 any, n int) any
	stop(h any) bool
	rearm(h any, t time.Duration, fn func()) any
	Step() bool
	RunUntil(t time.Duration)
	RunBefore(t time.Duration)
	PeekDeadline() (time.Duration, bool)
	Now() time.Duration
	Pending() int
	Live() int
	OrderStamp() uint64
}

type radixUnderTest struct{ *Scheduler }

func (q radixUnderTest) at(t time.Duration, fn func()) any { return q.At(t, fn) }
func (q radixUnderTest) atCall(t time.Duration, fn CallFunc, a0 any, n int) any {
	return q.AtCall(t, fn, a0, nil, n)
}
func (q radixUnderTest) atCallChan(t time.Duration, ch, seq uint64, fn CallFunc, a0 any, n int) any {
	return q.AtCallChan(t, ch, seq, fn, a0, nil, n)
}
func (q radixUnderTest) stop(h any) bool { return h.(Timer).Stop() }
func (q radixUnderTest) rearm(h any, t time.Duration, fn func()) any {
	tm, _ := h.(Timer)
	return q.Rearm(tm, t, fn)
}

type refUnderTest struct{ *refQueue }

func (q refUnderTest) at(t time.Duration, fn func()) any { return q.At(t, fn) }
func (q refUnderTest) atCall(t time.Duration, fn CallFunc, a0 any, n int) any {
	return q.AtCall(t, fn, a0, nil, n)
}
func (q refUnderTest) atCallChan(t time.Duration, ch, seq uint64, fn CallFunc, a0 any, n int) any {
	return q.AtCallChan(t, ch, seq, fn, a0, nil, n)
}
func (q refUnderTest) stop(h any) bool { return h.(refTimer).Stop() }
func (q refUnderTest) rearm(h any, t time.Duration, fn func()) any {
	tm, _ := h.(refTimer)
	return q.Rearm(tm, t, fn)
}

// satAdd is a + b, saturating at the largest Duration.
func satAdd(a, b time.Duration) time.Duration {
	if s := a + b; s >= a {
		return s
	}
	return math.MaxInt64
}

// lockstepWorld is one queue under a seeded script of schedules, stops,
// re-arms and peeks, issued between runs and from inside firing events.
// Two worlds with the same seed issue the same script as long as they
// fire the same events in the same order and report the same state, so
// the first divergence in their logs is the first operation after which
// the radix queue and the reference disagree.
type lockstepWorld struct {
	q      lockstepQueue
	rng    *rand.Rand
	timers []any
	chSeq  [3]uint64
	nextID int
	budget int
	log    []string
}

func (w *lockstepWorld) logf(format string, a ...any) {
	w.log = append(w.log, fmt.Sprintf(format, a...))
}

// state logs what must agree after every operation.
func (w *lockstepWorld) state(op string) {
	w.logf("%s: now=%d pending=%d live=%d stamp=%d", op, w.q.Now(), w.q.Pending(), w.q.Live(), w.q.OrderStamp())
}

func (w *lockstepWorld) fire(id int) {
	w.logf("fire %d @%d", id, w.q.Now())
	for n := w.rng.Intn(3); n > 0; n-- {
		w.op()
	}
}

func lockstepCall(a0, _ any, n int) { a0.(*lockstepWorld).fire(n) }

// deadline draws where a scripted event is due: mostly within a few
// nanoseconds of now, so deadlines collide across bands and callbacks
// schedule at now, but also in the past, far out, an hour out and
// against the end of time.
func (w *lockstepWorld) deadline() time.Duration {
	now, r := w.q.Now(), w.rng
	switch k := r.Intn(20); {
	case k < 9:
		return now + time.Duration(r.Intn(4))
	case k < 13:
		return satAdd(now, time.Duration(r.Intn(1<<12)))
	case k < 16:
		return satAdd(now, time.Duration(r.Int63n(1<<34)))
	case k < 17:
		return satAdd(now, time.Hour)
	case k < 18:
		return math.MaxInt64 - time.Duration(r.Intn(3))
	case k < 19:
		return now - time.Duration(r.Intn(5)) // in the past: runs now
	default:
		return satAdd(now, time.Duration(r.Int63()))
	}
}

func (w *lockstepWorld) op() {
	if w.budget == 0 {
		return
	}
	w.budget--
	q := w.q
	id := w.nextID
	w.nextID++
	fn := func() { w.fire(id) }
	switch k := w.rng.Intn(10); {
	case k < 2:
		w.timers = append(w.timers, q.at(w.deadline(), fn))
		w.state(fmt.Sprintf("at %d", id))
	case k < 4:
		w.timers = append(w.timers, q.atCall(w.deadline(), lockstepCall, w, id))
		w.state(fmt.Sprintf("atCall %d", id))
	case k < 6:
		ch := w.rng.Intn(len(w.chSeq))
		w.timers = append(w.timers, q.atCallChan(w.deadline(), uint64(ch), w.chSeq[ch], lockstepCall, w, id))
		w.chSeq[ch]++
		w.state(fmt.Sprintf("atCallChan %d", id))
	case k < 7:
		if len(w.timers) > 0 {
			i := w.rng.Intn(len(w.timers))
			w.state(fmt.Sprintf("stop %d = %v", i, q.stop(w.timers[i])))
		}
	case k < 8:
		at, ok := q.PeekDeadline()
		w.state(fmt.Sprintf("peek = (%d, %v)", at, ok))
	default:
		// Re-arm a recent handle (likely pending), any handle, or none,
		// to a deadline later or earlier than its current one.
		var h any
		if n := len(w.timers); n > 0 && w.rng.Intn(8) > 0 {
			i := n - 1 - w.rng.Intn(min(n, 4))
			if w.rng.Intn(4) == 0 {
				i = w.rng.Intn(n)
			}
			h = w.timers[i]
		}
		w.timers = append(w.timers, q.rearm(h, w.deadline(), fn))
		w.state(fmt.Sprintf("rearm %d", id))
	}
}

// TestQueueMatchesReference drives the radix queue and the single-heap
// reference through the same seeded scripts and requires the same fire
// order — which, for the same script, is the same (at, band, key) order
// — and the same clock, Pending, Live, OrderStamp and PeekDeadline after
// every operation. The radix queue's own invariants are checked after
// every driver action.
func TestQueueMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			s := NewScheduler()
			worlds := [2]*lockstepWorld{
				{q: radixUnderTest{s}, rng: rand.New(rand.NewSource(seed)), budget: 3000},
				{q: refUnderTest{&refQueue{}}, rng: rand.New(rand.NewSource(seed)), budget: 3000},
			}
			drv := rand.New(rand.NewSource(seed + 1000))
			for worlds[0].budget > 0 {
				var span time.Duration
				switch drv.Intn(4) {
				case 0:
					span = time.Duration(drv.Intn(6))
				case 1:
					span = time.Duration(drv.Intn(1 << 14))
				case 2:
					span = time.Duration(drv.Int63n(1 << 36)) // an idle gap
				}
				action, steps, peek := drv.Intn(5), drv.Intn(6), drv.Intn(2) == 0
				for _, w := range worlds {
					switch action {
					case 0:
						for i := 0; i < steps; i++ {
							w.state(fmt.Sprintf("step = %v", w.q.Step()))
						}
					case 1:
						w.q.RunUntil(satAdd(w.q.Now(), span))
						w.state("runUntil")
					case 2:
						w.q.RunBefore(satAdd(w.q.Now(), span))
						w.state("runBefore")
					default:
						w.op()
					}
					if peek {
						at, ok := w.q.PeekDeadline()
						w.state(fmt.Sprintf("peek = (%d, %v)", at, ok))
					}
				}
				compareLogs(t, worlds[0].log, worlds[1].log)
				checkQueue(t, s)
			}
			for _, w := range worlds {
				for w.q.Step() {
				}
				w.state("drained")
			}
			compareLogs(t, worlds[0].log, worlds[1].log)
			checkQueue(t, s)
		})
	}
}

func compareLogs(t *testing.T, radix, ref []string) {
	t.Helper()
	for i := range min(len(radix), len(ref)) {
		if radix[i] != ref[i] {
			t.Fatalf("line %d: radix %q, reference %q; radix before: %q", i, radix[i], ref[i], radix[max(0, i-5):i])
		}
	}
	if len(radix) != len(ref) {
		t.Fatalf("radix logged %d lines, reference %d", len(radix), len(ref))
	}
}

// checkQueue verifies the radix queue's structure: the heap is a heap of
// nodes due by horizon, each far node is later than horizon and in the
// bucket of the highest bit in which it differs from it, each bucket's
// cached minimum is its earliest deadline, and farMask names exactly the
// non-empty buckets.
func checkQueue(t *testing.T, s *Scheduler) {
	t.Helper()
	for i, n := range s.heap {
		if n.at > s.horizon {
			t.Fatalf("heap node due %d after horizon %d", n.at, s.horizon)
		}
		if i > 0 && nodeLess(n, s.heap[(i-1)>>2]) {
			t.Fatalf("heap order broken at %d", i)
		}
	}
	for b, f := range s.far {
		if s.farMask>>b&1 == 1 != (len(f) > 0) {
			t.Fatalf("farMask bit %d = %d, bucket holds %d nodes", b, s.farMask>>b&1, len(f))
		}
		if len(f) > 0 && slices.MinFunc(f, func(a, b heapNode) int { return cmp.Compare(a.at, b.at) }).at != s.farMin[b] {
			t.Fatalf("bucket %d: cached minimum %d is not its earliest deadline", b, s.farMin[b])
		}
		for _, n := range f {
			if n.at <= s.horizon || bits.Len64(uint64(n.at^s.horizon))-1 != b {
				t.Fatalf("node due %d filed in bucket %d, horizon %d", n.at, b, s.horizon)
			}
		}
	}
}

// TestScheduleBelowAdvancedHorizon pins the cases where the queue has
// looked past the clock — a peek, a run that stopped short of the next
// deadline, an epoch that ended at a barrier — and the caller then
// schedules between now and the deadline the queue looked at. Those
// events must still run first and in order: a queue that filed them by
// their distance from a horizon they precede would not.
func TestScheduleBelowAdvancedHorizon(t *testing.T) {
	cases := []struct {
		name     string
		scenario func(s *Scheduler, ev func(string) func())
		want     string
	}{
		{"peek", func(s *Scheduler, ev func(string) func()) {
			s.At(30, ev("cancelled")).Stop()
			s.At(100, ev("far"))
			if at, ok := s.PeekDeadline(); !ok || at != 100 {
				t.Fatalf("PeekDeadline = (%d, %v), want (100, true)", at, ok)
			}
			s.At(99, ev("b"))
			s.At(0, ev("a"))
		}, "[a@0 b@99 far@100]"},
		{"peek into a bucket too big to take whole", func(s *Scheduler, ev func(string) func()) {
			for i := 0; i <= wholeBucket; i++ {
				s.At(time.Duration(100+i), ev(fmt.Sprint("far", i)))
			}
			s.PeekDeadline()
			s.At(100, ev("last at 100"))
			s.At(50, ev("a"))
		}, "[a@50 far0@100 last at 100@100 far1@101 far2@102 far3@103 far4@104]"},
		{"run until short of the next deadline", func(s *Scheduler, ev func(string) func()) {
			s.At(1000, ev("far"))
			s.RunUntil(40)
			s.At(999, ev("c"))
			s.At(40, ev("a"))
			s.At(60, ev("b"))
		}, "[a@40 b@60 c@999 far@1000]"},
		{"run before a barrier, then inject at it", func(s *Scheduler, ev func(string) func()) {
			s.At(200, ev("far"))
			s.RunBefore(100)
			s.AtCallChan(100, 0, 0, func(a0, _ any, _ int) { a0.(func())() }, ev("handoff"), nil, 0)
			s.At(150, ev("b"))
			s.At(100, ev("a"))
		}, "[a@100 handoff@100 b@150 far@200]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := NewScheduler()
			var got []string
			c.scenario(s, func(name string) func() {
				return func() { got = append(got, fmt.Sprintf("%s@%d", name, s.Now())) }
			})
			checkQueue(t, s)
			s.Run()
			if fmt.Sprint(got) != c.want {
				t.Fatalf("fired %s, want %s", got, c.want)
			}
		})
	}
}
