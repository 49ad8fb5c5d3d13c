package sim

import (
	"fmt"
	"testing"
	"time"
)

// firing is one observed callback: the virtual time it ran at and the
// arm-order id it was registered with.
type firing struct {
	at time.Duration
	id int
}

// wheelScript is a randomized timer schedule: initial arms, a cancel
// set, and rearm chains (callbacks that arm further timers when they
// fire) — the differential workload run identically through the raw
// scheduler heap and through the wheel.
type wheelScript struct {
	arms    []time.Duration       // initial deadlines, index = id
	cancel  map[int]bool          // ids cancelled immediately after arming everything
	chain   map[int]time.Duration // id -> extra delay to arm a child timer on fire
	chainID map[int]int           // id -> child id
}

func genWheelScript(seed int64, n int) *wheelScript {
	rng := NewRNG(seed)
	s := &wheelScript{
		cancel:  map[int]bool{},
		chain:   map[int]time.Duration{},
		chainID: map[int]int{},
	}
	nextID := n
	for i := 0; i < n; i++ {
		var d time.Duration
		switch rng.Intn(10) {
		case 0: // same-instant duplicates: exercise the seq tie-break
			d = time.Duration(rng.Intn(4)) * time.Millisecond
		case 1: // level-2 horizon (tick = 100µs → level 1 tops out at 6.55s)
			d = 7*time.Second + time.Duration(rng.Intn(1000))*time.Millisecond
		case 2: // level-3 horizon (level 2 tops out at ~1677s)
			d = 1700*time.Second + time.Duration(rng.Intn(100))*time.Second
		case 3: // immediate
			d = 0
		default: // dense short-range churn, sub-tick offsets included
			d = time.Duration(rng.Intn(50_000)) * 10 * time.Microsecond
		}
		s.arms = append(s.arms, d)
		if rng.Intn(5) == 0 {
			s.cancel[i] = true
		} else if rng.Intn(4) == 0 {
			s.chain[i] = time.Duration(rng.Intn(2000)) * 100 * time.Microsecond
			s.chainID[i] = nextID
			nextID++
		}
	}
	return s
}

// runScriptHeap arms the script directly on a Scheduler.
func runScriptHeap(s *wheelScript) []firing {
	sched := NewScheduler()
	var got []firing
	var armChain func(id int)
	timers := make([]Timer, len(s.arms))
	armChain = func(id int) {
		if d, ok := s.chain[id]; ok {
			child := s.chainID[id]
			sched.After(d, func() {
				got = append(got, firing{sched.Now(), child})
			})
		}
	}
	for i, d := range s.arms {
		id := i
		timers[i] = sched.After(d, func() {
			got = append(got, firing{sched.Now(), id})
			armChain(id)
		})
	}
	for id := range s.cancel {
		timers[id].Stop()
	}
	sched.Run()
	return got
}

// runScriptWheel arms the identical script through a Wheel.
func runScriptWheel(s *wheelScript, tick time.Duration) ([]firing, *Wheel) {
	sched := NewScheduler()
	w := NewWheel(sched, tick)
	var got []firing
	var armChain func(id int)
	timers := make([]WheelTimer, len(s.arms))
	armChain = func(id int) {
		if d, ok := s.chain[id]; ok {
			child := s.chainID[id]
			w.After(d, func() {
				got = append(got, firing{sched.Now(), child})
			})
		}
	}
	for i, d := range s.arms {
		id := i
		timers[i] = w.After(d, func() {
			got = append(got, firing{sched.Now(), id})
			armChain(id)
		})
	}
	for id := range s.cancel {
		if !timers[id].Stop() {
			panic("wheel: Stop on a pending timer reported false")
		}
	}
	sched.Run()
	return got, w
}

// TestWheelMatchesHeapOnRandomSchedules is the wheel's ordering
// contract: a randomized schedule (same-instant duplicates, sub-tick
// offsets, deadlines spanning every wheel level, cancellations, and
// rearm chains from inside callbacks) armed through the wheel must
// produce the exact (time, arm-order) firing sequence as the same
// schedule armed directly on the 4-ary heap.
func TestWheelMatchesHeapOnRandomSchedules(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		s := genWheelScript(seed, 400)
		want := runScriptHeap(s)
		got, w := runScriptWheel(s, 100*time.Microsecond)
		if len(got) != len(want) {
			t.Fatalf("seed %d: wheel fired %d callbacks, heap fired %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d diverged: wheel (%v, id %d) vs heap (%v, id %d)",
					seed, i, got[i].at, got[i].id, want[i].at, want[i].id)
			}
		}
		if w.Pending() != 0 {
			t.Fatalf("seed %d: %d entries still pending after drain", seed, w.Pending())
		}
		fired := len(s.arms) - len(s.cancel)
		for id := range s.chain {
			if !s.cancel[id] {
				fired++
			}
		}
		if int(w.Expired()) != fired {
			t.Fatalf("seed %d: Expired() = %d, want %d", seed, w.Expired(), fired)
		}
	}
}

// TestWheelTickGranularityInvariance pins that the tick size is pure
// indexing: the same schedule fires identically at wildly different
// granularities (including ticks so coarse that everything lands in
// one slot, and so fine that top-level horizon clamping kicks in).
func TestWheelTickGranularityInvariance(t *testing.T) {
	s := genWheelScript(11, 300)
	want := runScriptHeap(s)
	for _, tick := range []time.Duration{time.Microsecond, 100 * time.Microsecond, 50 * time.Millisecond, 10 * time.Second} {
		got, _ := runScriptWheel(s, tick)
		if len(got) != len(want) {
			t.Fatalf("tick %v: fired %d, want %d", tick, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("tick %v: firing %d diverged: (%v, id %d) vs (%v, id %d)",
					tick, i, got[i].at, got[i].id, want[i].at, want[i].id)
			}
		}
	}
}

// TestWheelCascade exercises entries placed at a high level whose
// windows must open and redistribute down before firing, including an
// early entry armed *after* a far one (the wheel timer must pull in).
func TestWheelCascade(t *testing.T) {
	sched := NewScheduler()
	w := NewWheel(sched, 100*time.Microsecond)
	var order []string
	w.After(2000*time.Second, func() { order = append(order, "far") })  // level 3
	w.After(100*time.Second, func() { order = append(order, "mid") })   // level 2
	w.After(time.Second, func() { order = append(order, "near") })      // level 1
	w.After(time.Millisecond, func() { order = append(order, "soon") }) // level 0
	sched.Run()
	want := []string{"soon", "near", "mid", "far"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("cascade order = %v, want %v", order, want)
	}
	if w.Pending() != 0 || w.Expired() != 4 {
		t.Fatalf("pending %d expired %d after cascade run", w.Pending(), w.Expired())
	}
}

// TestWheelStop pins cancellation semantics: Stop reports true exactly
// once, a cancelled entry never fires, a fired entry's handle reports
// false, and a handle is not confused by arena recycling (generation
// check).
func TestWheelStop(t *testing.T) {
	sched := NewScheduler()
	w := NewWheel(sched, time.Millisecond)
	fired := 0
	tm := w.After(10*time.Millisecond, func() { fired++ })
	if !tm.Stop() {
		t.Fatal("first Stop reported false")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported true")
	}
	if w.Pending() != 0 {
		t.Fatalf("Pending() = %d after cancel", w.Pending())
	}
	keep := w.After(20*time.Millisecond, func() { fired++ })
	sched.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (cancelled entry must not fire)", fired)
	}
	if keep.Stop() {
		t.Fatal("Stop after firing reported true")
	}
	// The cancelled entry's slot is recycled by now; a fresh timer may
	// reuse it. The stale handle must not cancel the new tenant.
	tm2 := w.After(5*time.Millisecond, func() { fired++ })
	if tm.Stop() {
		t.Fatal("stale handle cancelled a recycled entry")
	}
	sched.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	_ = tm2
	var zero WheelTimer
	if zero.Stop() {
		t.Fatal("zero WheelTimer Stop reported true")
	}
}

// TestWheelSameInstantArm covers the direct-dispatch path: a callback
// arming work at the current instant runs it this instant, after the
// firing event, in arm order.
func TestWheelSameInstantArm(t *testing.T) {
	sched := NewScheduler()
	w := NewWheel(sched, time.Millisecond)
	var order []string
	w.After(time.Millisecond, func() {
		order = append(order, "a")
		w.After(0, func() { order = append(order, "c") })
		w.After(0, func() { order = append(order, "d") })
		order = append(order, "b")
	})
	w.After(2*time.Millisecond, func() { order = append(order, "e") })
	sched.Run()
	want := []string{"a", "b", "c", "d", "e"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("same-instant order = %v, want %v", order, want)
	}
}

// TestWheelPosAheadStraggler reproduces the churn-engine arming
// pattern that once live-locked the wheel: periodic waves each arming
// timers whose deadlines spread far past the wave period (level-1
// territory at a 100 µs tick). After a quiet gap, nextDeadline
// advances pos to the next *populated* tick — which can run ahead of
// the clock — and the next wave's near deadlines then land behind pos,
// where place clamp-buckets them into the current pos slot. fire must
// merge the pos slot (not the clock-tick slot) or those stragglers are
// never collected and the wheel re-arms their past deadline forever.
func TestWheelPosAheadStraggler(t *testing.T) {
	sched := NewScheduler()
	w := NewWheel(sched, 100*time.Microsecond)
	rng := NewRNG(3)
	fired := 0
	armed := 0
	const (
		waveEvery = 1250 * time.Microsecond
		waves     = 32
		perWave   = 10
	)
	var wave func()
	wavesLeft := waves
	wave = func() {
		for i := 0; i < perWave; i++ {
			// Deadlines 1..160 ms out: most land in level 1, and the
			// short ones from later waves fall behind an advanced pos.
			d := time.Duration(1+rng.Intn(160_000)) * time.Microsecond
			w.After(d, func() { fired++ })
			armed++
		}
		if wavesLeft--; wavesLeft > 0 {
			sched.After(waveEvery, wave)
		}
	}
	sched.After(0, wave)
	sched.RunFor(400 * time.Millisecond)
	if fired != armed {
		t.Fatalf("fired %d of %d armed timers (wheel stranded %d)", fired, armed, armed-fired)
	}
	if w.Pending() != 0 {
		t.Fatalf("%d entries still pending after drain", w.Pending())
	}
}

// wheelExpireSink is the allocation-guard CallFunc target.
var wheelExpireCount int

func wheelExpireCall(_, _ any, n int) { wheelExpireCount += n }

// TestWheelSteadyStateAllocs is the churn-lifecycle allocation guard:
// once the entry arena has grown to the working set, arming and
// expiring timers through AtCall allocates nothing.
func TestWheelSteadyStateAllocs(t *testing.T) {
	sched := NewScheduler()
	w := NewWheel(sched, 100*time.Microsecond)
	// Warm the arena and the due scratch.
	prime := func(base time.Duration) {
		for i := 0; i < 512; i++ {
			w.AtCall(base+time.Duration(i%40)*250*time.Microsecond, wheelExpireCall, nil, nil, 1)
		}
		sched.RunUntil(base + 20*time.Millisecond)
	}
	prime(sched.Now() + time.Millisecond)
	round := 0
	avg := testing.AllocsPerRun(50, func() {
		round++
		prime(sched.Now() + time.Duration(round)*25*time.Millisecond)
	})
	if avg > 0 {
		t.Fatalf("steady-state churn arm/expire allocated %.1f allocs per 512-timer round, want 0", avg)
	}
}

// BenchmarkWheelChurnLifecycle measures the mass-lifecycle hot path:
// arm a batch of AtCall timers and drain them, the wheel analogue of
// one churn epoch. Runs under bench-guard's -benchmem leg.
func BenchmarkWheelChurnLifecycle(b *testing.B) {
	sched := NewScheduler()
	w := NewWheel(sched, 100*time.Microsecond)
	const batch = 1024
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := sched.Now() + time.Millisecond
		for j := 0; j < batch; j++ {
			w.AtCall(base+time.Duration(j%64)*100*time.Microsecond, wheelExpireCall, nil, nil, 1)
		}
		sched.RunUntil(base + 10*time.Millisecond)
	}
	if w.Pending() != 0 {
		b.Fatalf("pending %d after drain", w.Pending())
	}
}

// BenchmarkHeapChurnLifecycle is the baseline for the same workload
// armed directly on the scheduler heap, for the speedup comparison in
// bench-guard output.
func BenchmarkHeapChurnLifecycle(b *testing.B) {
	sched := NewScheduler()
	const batch = 1024
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := sched.Now() + time.Millisecond
		for j := 0; j < batch; j++ {
			sched.AtCall(base+time.Duration(j%64)*100*time.Microsecond, wheelExpireCall, nil, nil, 1)
		}
		sched.RunUntil(base + 10*time.Millisecond)
	}
}
