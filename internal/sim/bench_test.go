package sim

import (
	"fmt"
	"testing"
	"time"
)

// benchTick is the AtCall target for the scheduler guards: a package
// function taking a pointer argument, so scheduling it boxes nothing.
func benchTick(a0, _ any, n int) {
	*a0.(*int) += n
}

// TestSchedulerSteadyStateZeroAlloc guards the event-pool invariant: once
// the arena and heap have grown to working-set size, a schedule→fire cycle
// must not allocate. This covers the closure form (At with a func value
// created once and reused), the argument-carrying form (AtCall with a
// package function and pointer-shaped arguments), cancellation and
// re-arming.
func TestSchedulerSteadyStateZeroAlloc(t *testing.T) {
	t.Run("At", func(t *testing.T) {
		s := NewScheduler()
		fired := 0
		tick := func() { fired++ } // one closure, reused every schedule
		// Warm the arena and heap.
		for i := 0; i < 64; i++ {
			s.At(time.Duration(i), tick)
		}
		s.Run()
		got := testing.AllocsPerRun(200, func() {
			for i := 0; i < 16; i++ {
				s.At(s.Now()+time.Duration(i+1), tick)
			}
			s.Run()
		})
		if got != 0 {
			t.Fatalf("At schedule/fire allocated %.1f per cycle, want 0", got)
		}
	})

	t.Run("AtCall", func(t *testing.T) {
		s := NewScheduler()
		sum := 0
		for i := 0; i < 64; i++ {
			s.AtCall(time.Duration(i), benchTick, &sum, nil, 1)
		}
		s.Run()
		got := testing.AllocsPerRun(200, func() {
			for i := 0; i < 16; i++ {
				s.AtCall(s.Now()+time.Duration(i+1), benchTick, &sum, nil, 1)
			}
			s.Run()
		})
		if got != 0 {
			t.Fatalf("AtCall schedule/fire allocated %.1f per cycle, want 0", got)
		}
	})

	t.Run("StopRecycle", func(t *testing.T) {
		// Cancelled timers must also recycle without leaking or
		// allocating: the record is reclaimed when its heap node pops.
		s := NewScheduler()
		fired := 0
		tick := func() { fired++ }
		for i := 0; i < 64; i++ {
			s.At(time.Duration(i), tick)
		}
		s.Run()
		got := testing.AllocsPerRun(200, func() {
			for i := 0; i < 16; i++ {
				tm := s.At(s.Now()+time.Duration(i+1), tick)
				if i%2 == 0 {
					tm.Stop()
				}
			}
			s.Run()
		})
		if got != 0 {
			t.Fatalf("Stop+drain allocated %.1f per cycle, want 0", got)
		}
	})

	t.Run("Rearm", func(t *testing.T) {
		// A timer pushed back many times per firing, the retransmission
		// timer's pattern: both the move and the occasional
		// earlier-deadline fallback to Stop-then-At stay in the pool.
		s := NewScheduler()
		fired := 0
		tick := func() { fired++ }
		for i := 0; i < 64; i++ {
			s.At(time.Duration(i), tick)
		}
		s.Run()
		var tm Timer
		got := testing.AllocsPerRun(200, func() {
			for i := 0; i < 16; i++ {
				tm = s.Rearm(tm, s.Now()+time.Duration(20-i%3*5), tick)
			}
			s.Run()
		})
		if got != 0 {
			t.Fatalf("Rearm+drain allocated %.1f per cycle, want 0", got)
		}
	})

	t.Run("FarBacklog", func(t *testing.T) {
		// 4,096 events an hour out, and near events from 1 ns to about a
		// second out, six at each distance, so buckets across the range
		// are split as well as taken whole: once they have grown, filing,
		// splitting and firing reuse them.
		s := NewScheduler()
		sum := 0
		for i := 0; i < 4096; i++ {
			s.AtCall(time.Hour+time.Duration(i), benchTick, &sum, nil, 1)
		}
		cycle := func() {
			base := s.Now()
			for i := 0; i < 16; i++ {
				for j := 0; j < 6; j++ {
					s.AtCall(base+1<<(2*i)+time.Duration(j), benchTick, &sum, nil, 1)
				}
			}
			for i := 0; i < 16*6; i++ {
				s.Step()
			}
		}
		for i := 0; i < 8; i++ {
			cycle()
		}
		got := testing.AllocsPerRun(200, cycle)
		if got != 0 {
			t.Fatalf("schedule/fire beside a far backlog allocated %.1f per cycle, want 0", got)
		}
		if s.Live() != 4096 || s.Now() >= time.Hour {
			t.Fatalf("backlog disturbed: %d live at %v", s.Live(), s.Now())
		}
	})
}

// BenchmarkSchedulerDepth times the two shapes bench/probes.go prices
// (sim.at_fire_ns, sim.timer_stop_ns) over a queue already holding depth
// events an hour out: fire is AtCall at now+1µs then Step; stop is the
// same arm, Stop, then RunUntil its deadline, which discards the
// cancelled node. A queue whose per-event work grows with its far-future
// backlog shows it here as a cost rising with depth.
func BenchmarkSchedulerDepth(b *testing.B) {
	shapes := []struct {
		name string
		op   func(s *Scheduler, sum *int)
	}{
		{"fire", func(s *Scheduler, sum *int) {
			s.AtCall(s.Now()+time.Microsecond, benchTick, sum, nil, 1)
			s.Step()
		}},
		{"stop", func(s *Scheduler, sum *int) {
			at := s.Now() + time.Microsecond
			s.AtCall(at, benchTick, sum, nil, 1).Stop()
			s.RunUntil(at)
		}},
	}
	for _, shape := range shapes {
		for _, depth := range []int{16, 256, 4096} {
			b.Run(fmt.Sprintf("%s/%d", shape.name, depth), func(b *testing.B) {
				s := NewScheduler()
				sum := 0
				for i := 0; i < depth; i++ {
					s.AtCall(time.Hour+time.Duration(i), benchTick, &sum, nil, 1)
				}
				for i := 0; i < 1024; i++ {
					shape.op(s, &sum)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					shape.op(s, &sum)
				}
			})
		}
	}
}

// BenchmarkSchedulerChurn measures the pooled schedule→fire round trip
// with a bounded pending set — the hot pattern of the packet pipeline
// (every link hop schedules one event, every proc one). Contrast with
// BenchmarkSchedulerThroughput, which measures a large pre-filled heap.
func BenchmarkSchedulerChurn(b *testing.B) {
	b.Run("At", func(b *testing.B) {
		s := NewScheduler()
		fired := 0
		tick := func() { fired++ }
		for i := 0; i < 64; i++ {
			s.At(time.Duration(i), tick)
		}
		s.Run()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.At(s.Now()+1, tick)
			s.Step()
		}
	})
	b.Run("AtCall", func(b *testing.B) {
		s := NewScheduler()
		sum := 0
		for i := 0; i < 64; i++ {
			s.AtCall(time.Duration(i), benchTick, &sum, nil, 1)
		}
		s.Run()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.AtCall(s.Now()+1, benchTick, &sum, nil, 1)
			s.Step()
		}
	})
	b.Run("Rearm", func(b *testing.B) {
		// One timer pushed back eight times per event fired, beside a
		// bounded set of ordinary events.
		s := NewScheduler()
		fired := 0
		tick := func() { fired++ }
		for i := 0; i < 64; i++ {
			s.At(time.Duration(i), tick)
		}
		s.Run()
		tm := s.At(s.Now()+1000, tick)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%8 == 0 {
				s.At(s.Now()+1, tick)
				s.Step()
			}
			tm = s.Rearm(tm, s.Now()+1000, tick)
		}
	})
}
