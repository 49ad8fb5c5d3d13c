package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(30*time.Microsecond, func() { got = append(got, 3) })
	s.At(10*time.Microsecond, func() { got = append(got, 1) })
	s.At(20*time.Microsecond, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*time.Microsecond {
		t.Fatalf("Now() = %v, want 30µs", s.Now())
	}
}

func TestSchedulerSimultaneousFIFO(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(time.Millisecond, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events not FIFO at index %d: got %d", i, got[i])
		}
	}
}

func TestSchedulerPastEventRunsNow(t *testing.T) {
	s := NewScheduler()
	s.At(time.Second, func() {
		s.At(time.Millisecond, func() {
			if s.Now() != time.Second {
				t.Errorf("past event ran at %v, want clock held at 1s", s.Now())
			}
		})
	})
	s.Run()
}

func TestSchedulerAfterNegative(t *testing.T) {
	s := NewScheduler()
	fired := false
	s.After(-time.Second, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("negative After never fired")
	}
	if s.Now() != 0 {
		t.Fatalf("clock moved backwards: %v", s.Now())
	}
}

// TestAfterSaturates: a delay past the end of time is "never" for any run
// that can end, not a deadline that wrapped negative and was clamped to
// now.
func TestAfterSaturates(t *testing.T) {
	s := NewScheduler()
	s.RunFor(time.Millisecond)
	fired := false
	tm := s.After(math.MaxInt64, func() { fired = true })
	s.RunFor(time.Second)
	if fired || tm.Deadline() != math.MaxInt64 {
		t.Fatalf("After(MaxInt64) at 1ms: fired=%v by %v, deadline %v; want pending at MaxInt64", fired, s.Now(), tm.Deadline())
	}
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler()
	fired := false
	tm := s.After(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false for pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	s := NewScheduler()
	tm := s.After(0, func() {})
	s.Run()
	if tm.Stop() {
		t.Fatal("Stop() = true after event fired")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := NewScheduler()
	var fired []time.Duration
	s.At(time.Millisecond, func() { fired = append(fired, s.Now()) })
	s.At(3*time.Millisecond, func() { fired = append(fired, s.Now()) })
	s.RunUntil(2 * time.Millisecond)
	if len(fired) != 1 {
		t.Fatalf("fired %d events, want 1", len(fired))
	}
	if s.Now() != 2*time.Millisecond {
		t.Fatalf("Now() = %v, want 2ms", s.Now())
	}
	s.RunFor(time.Millisecond)
	if len(fired) != 2 {
		t.Fatalf("fired %d events after RunFor, want 2", len(fired))
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	s := NewScheduler()
	fired := false
	s.At(time.Millisecond, func() { fired = true })
	s.RunUntil(time.Millisecond)
	if !fired {
		t.Fatal("event at boundary did not fire")
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewScheduler()
	depth := 0
	var schedule func()
	schedule = func() {
		depth++
		if depth < 50 {
			s.After(time.Microsecond, schedule)
		}
	}
	s.After(0, schedule)
	s.Run()
	if depth != 50 {
		t.Fatalf("depth = %d, want 50", depth)
	}
	if s.Executed() != 50 {
		t.Fatalf("Executed() = %d, want 50", s.Executed())
	}
}

// TestSchedulerDeterminism is the determinism contract: identical schedules
// execute identically, regardless of insertion pattern randomness.
func TestSchedulerDeterminism(t *testing.T) {
	run := func(seed int64) []time.Duration {
		g := NewRNG(seed)
		s := NewScheduler()
		var order []time.Duration
		for i := 0; i < 500; i++ {
			d := time.Duration(g.Intn(1000)) * time.Microsecond
			s.At(d, func() { order = append(order, s.Now()) })
		}
		s.Run()
		return order
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: events always fire in nondecreasing time order.
func TestEventOrderProperty(t *testing.T) {
	f := func(deadlines []uint16) bool {
		s := NewScheduler()
		var fired []time.Duration
		for _, d := range deadlines {
			dd := time.Duration(d) * time.Microsecond
			s.At(dd, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(deadlines)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminismAndFork(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverge")
		}
	}
	// Forks from identically-advanced parents are identical.
	fa, fb := a.Fork(), b.Fork()
	for i := 0; i < 100; i++ {
		if fa.Uint64() != fb.Uint64() {
			t.Fatal("forked RNGs diverge")
		}
	}
	// A fork is independent of further parent use.
	if a.Intn(10) < 0 {
		t.Fatal("Intn out of range")
	}
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	s := NewScheduler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i)*time.Nanosecond, func() {})
	}
	s.Run()
}

func TestLiveCounter(t *testing.T) {
	s := NewScheduler()
	t1 := s.After(time.Millisecond, func() {})
	t2 := s.After(2*time.Millisecond, func() {})
	s.After(3*time.Millisecond, func() {})
	if s.Live() != 3 {
		t.Fatalf("Live() = %d, want 3", s.Live())
	}
	t1.Stop()
	if s.Live() != 2 {
		t.Fatalf("Live() after Stop = %d, want 2", s.Live())
	}
	// The cancelled node is still heap residue: Pending overcounts, Live
	// does not.
	if s.Pending() != 3 {
		t.Fatalf("Pending() = %d, want 3 (lazy cancellation)", s.Pending())
	}
	s.RunUntil(2 * time.Millisecond)
	if s.Live() != 1 {
		t.Fatalf("Live() mid-run = %d, want 1", s.Live())
	}
	t2.Stop() // already fired: must not double-decrement
	if s.Live() != 1 {
		t.Fatalf("Live() after post-fire Stop = %d, want 1", s.Live())
	}
	s.Run()
	if s.Live() != 0 {
		t.Fatalf("Live() after drain = %d, want 0", s.Live())
	}
}

func TestRunBeforeHalfOpen(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(time.Millisecond, func() { got = append(got, 1) })
	s.At(2*time.Millisecond, func() { got = append(got, 2) })
	s.RunBefore(2 * time.Millisecond)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("RunBefore executed %v, want only the 1ms event", got)
	}
	if s.Now() != 2*time.Millisecond {
		t.Fatalf("Now() = %v, want clock advanced to the bound", s.Now())
	}
	s.RunUntil(2 * time.Millisecond)
	if len(got) != 2 {
		t.Fatalf("boundary event lost: got %v", got)
	}
}

func TestChannelEventOrdering(t *testing.T) {
	// At one deadline: ordinary (band-0) events first in insertion
	// order, then channel events by (channel, sequence) regardless of
	// insertion order — the invariant the parallel engine's bit-identity
	// rests on.
	s := NewScheduler()
	var got []string
	rec := func(tag string) CallFunc {
		return func(any, any, int) { got = append(got, tag) }
	}
	at := time.Millisecond
	s.AtCallChan(at, 7, 1, rec("ch7.1"), nil, nil, 0)
	s.AtCallChan(at, 3, 5, rec("ch3.5"), nil, nil, 0)
	s.At(at, func() { got = append(got, "plain0") })
	s.AtCallChan(at, 3, 2, rec("ch3.2"), nil, nil, 0)
	s.At(at, func() { got = append(got, "plain1") })
	s.Run()
	want := []string{"plain0", "plain1", "ch3.2", "ch3.5", "ch7.1"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tie-break order = %v, want %v", got, want)
		}
	}
}

func TestPeekDeadline(t *testing.T) {
	s := NewScheduler()
	if _, ok := s.PeekDeadline(); ok {
		t.Fatal("PeekDeadline on empty scheduler reported an event")
	}
	tm := s.After(time.Millisecond, func() {})
	s.After(2*time.Millisecond, func() {})
	tm.Stop()
	at, ok := s.PeekDeadline()
	if !ok || at != 2*time.Millisecond {
		t.Fatalf("PeekDeadline = %v,%v; want 2ms (cancelled head skipped)", at, ok)
	}
}
