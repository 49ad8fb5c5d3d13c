package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// stopThenAt is what Rearm must be indistinguishable from.
func stopThenAt(s *Scheduler, t Timer, at time.Duration, fn func()) Timer {
	t.Stop()
	return s.At(at, fn)
}

// scriptWorld is one scheduler under a seeded random script of
// At/AtCall/AtCallChan/Stop/Rearm, issued from set-up code and from
// inside firing events. Two worlds with the same seed issue the same
// script as long as they fire the same events in the same order, so any
// observable difference between Rearm and Stop-then-At shows up as
// diverging logs.
type scriptWorld struct {
	t      *testing.T
	s      *Scheduler
	rng    *rand.Rand
	rearm  func(s *Scheduler, t Timer, at time.Duration, fn func()) Timer
	timers []Timer // every handle ever returned, stale ones included
	chSeq  [3]uint64
	nextID int
	budget int
	log    []string
	probes []*firedProbe
}

// firedProbe is a real ordinary event nobody cancels, with the stamp
// taken just before it was scheduled: Fired(at, stamp) must say at every
// moment whether it has run.
type firedProbe struct {
	at    time.Duration
	stamp uint64
	fired bool
}

func (w *scriptWorld) logf(format string, a ...any) {
	w.log = append(w.log, fmt.Sprintf(format, a...))
}

// fire is the body of every scripted event.
func (w *scriptWorld) fire(id int) {
	w.logf("fire %d @%d", id, w.s.Now())
	w.checkProbes()
	for n := w.rng.Intn(3); n > 0; n-- {
		w.op()
	}
}

func scriptCall(a0, _ any, n int) { a0.(*scriptWorld).fire(n) }

func (w *scriptWorld) checkProbes() {
	w.t.Helper()
	for _, p := range w.probes {
		if got := w.s.Fired(p.at, p.stamp); got != p.fired {
			w.t.Fatalf("at %d: Fired(%d, stamp %d) = %v, but the event scheduled there has fired=%v",
				w.s.Now(), p.at, p.stamp, got, p.fired)
		}
	}
}

func (w *scriptWorld) op() {
	if w.budget == 0 {
		return
	}
	w.budget--
	s := w.s
	at := s.Now() + time.Duration(w.rng.Intn(6))
	id := w.nextID
	w.nextID++
	switch w.rng.Intn(8) {
	case 0:
		w.timers = append(w.timers, s.At(at, func() { w.fire(id) }))
	case 1:
		w.timers = append(w.timers, s.AtCall(at, scriptCall, w, nil, id))
	case 2:
		ch := w.rng.Intn(len(w.chSeq))
		w.timers = append(w.timers, s.AtCallChan(at, uint64(ch), w.chSeq[ch], scriptCall, w, nil, id))
		w.chSeq[ch]++
	case 3:
		if len(w.timers) > 0 {
			i := w.rng.Intn(len(w.timers))
			w.logf("stop %d = %v", i, w.timers[i].Stop())
		}
	case 4:
		p := &firedProbe{at: at, stamp: s.OrderStamp()}
		w.probes = append(w.probes, p)
		s.At(at, func() { p.fired = true; w.checkProbes() })
	default:
		// Re-arm: mostly a recent handle (likely still pending), sometimes
		// any handle (fired, stopped, superseded), sometimes none at all;
		// the new deadline is later or earlier than the old one.
		var tm Timer
		if n := len(w.timers); n > 0 && w.rng.Intn(8) > 0 {
			i := n - 1 - w.rng.Intn(min(n, 4))
			if w.rng.Intn(4) == 0 {
				i = w.rng.Intn(n)
			}
			tm = w.timers[i]
		}
		at = s.Now() + time.Duration(w.rng.Intn(12))
		w.timers = append(w.timers, w.rearm(s, tm, at, func() { w.fire(id) }))
	}
}

func TestRearmMatchesStopThenAt(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			newWorld := func(rearm func(*Scheduler, Timer, time.Duration, func()) Timer) *scriptWorld {
				return &scriptWorld{t: t, s: NewScheduler(), rng: rand.New(rand.NewSource(seed)), rearm: rearm, budget: 3000}
			}
			worlds := []*scriptWorld{newWorld((*Scheduler).Rearm), newWorld(stopThenAt)}
			drv := rand.New(rand.NewSource(seed + 1000))
			moved := 0
			for worlds[0].budget > 0 {
				span := time.Duration(drv.Intn(6))
				action, steps := drv.Intn(4), drv.Intn(6)
				for _, w := range worlds {
					switch action {
					case 0:
						for i := 0; i < steps; i++ {
							w.s.Step()
						}
					case 1:
						w.s.RunUntil(w.s.Now() + span)
					case 2:
						w.s.RunBefore(w.s.Now() + span)
					case 3:
						w.op() // set-up code between runs
					}
					w.checkProbes()
				}
				compareWorlds(t, worlds[0], worlds[1])
				if worlds[0].s.Pending() < worlds[1].s.Pending() {
					moved++
				}
			}
			for _, w := range worlds {
				w.s.Run()
				w.checkProbes()
			}
			compareWorlds(t, worlds[0], worlds[1])
			if moved == 0 {
				t.Fatal("Rearm never saved a heap node: the script does not reach the move path")
			}
		})
	}
}

func compareWorlds(t *testing.T, a, b *scriptWorld) {
	t.Helper()
	if len(a.log) != len(b.log) {
		t.Fatalf("Rearm world logged %d lines, Stop+At world %d; Rearm's tail: %q", len(a.log), len(b.log), tail(a.log))
	}
	for i := range a.log {
		if a.log[i] != b.log[i] {
			t.Fatalf("line %d: Rearm world %q, Stop+At world %q", i, a.log[i], b.log[i])
		}
	}
	if a.s.Now() != b.s.Now() || a.s.Live() != b.s.Live() || a.s.Executed() != b.s.Executed() {
		t.Fatalf("Rearm world now=%d live=%d executed=%d, Stop+At world now=%d live=%d executed=%d",
			a.s.Now(), a.s.Live(), a.s.Executed(), b.s.Now(), b.s.Live(), b.s.Executed())
	}
	atA, okA := a.s.PeekDeadline()
	atB, okB := b.s.PeekDeadline()
	if atA != atB || okA != okB {
		t.Fatalf("PeekDeadline: Rearm world (%d, %v), Stop+At world (%d, %v)", atA, okA, atB, okB)
	}
}

func tail(log []string) []string {
	if len(log) > 5 {
		log = log[len(log)-5:]
	}
	return log
}

// TestRearmEdgeCases runs the cases where Rearm cannot move the record —
// and the plain one where it can — against Stop-then-At, handle by
// handle.
func TestRearmEdgeCases(t *testing.T) {
	type impl = func(*Scheduler, Timer, time.Duration, func()) Timer
	run := func(rearm impl, scenario func(s *Scheduler, rearm impl, logf func(string, ...any))) []string {
		var log []string
		s := NewScheduler()
		logf := func(format string, a ...any) {
			log = append(log, fmt.Sprintf("@%d ", s.Now())+fmt.Sprintf(format, a...))
		}
		scenario(s, rearm, logf)
		s.Run()
		logf("end live=%d", s.Live())
		return log
	}
	scenarios := map[string]func(s *Scheduler, rearm impl, logf func(string, ...any)){
		"later": func(s *Scheduler, rearm impl, logf func(string, ...any)) {
			s.At(20, func() { logf("bystander") })
			old := s.At(10, func() { logf("old") })
			s.At(20, func() { logf("bystander 2") })
			tm := rearm(s, old, 20, func() { logf("new") })
			s.At(20, func() { logf("bystander 3") })
			logf("old.Stop=%v deadline=%d live=%d", old.Stop(), tm.Deadline(), s.Live())
		},
		"same deadline": func(s *Scheduler, rearm impl, logf func(string, ...any)) {
			old := s.At(10, func() { logf("old") })
			s.At(10, func() { logf("bystander") })
			rearm(s, old, 10, func() { logf("new") }) // now behind the bystander
		},
		"earlier": func(s *Scheduler, rearm impl, logf func(string, ...any)) {
			old := s.At(30, func() { logf("old") })
			s.At(10, func() { logf("bystander") })
			tm := rearm(s, old, 10, func() { logf("new") })
			logf("old.Stop=%v deadline=%d live=%d", old.Stop(), tm.Deadline(), s.Live())
		},
		"in the past": func(s *Scheduler, rearm impl, logf func(string, ...any)) {
			old := s.At(30, func() { logf("old") })
			s.At(20, func() {
				tm := rearm(s, old, 5, func() { logf("new") })
				logf("deadline=%d", tm.Deadline())
			})
		},
		"fired": func(s *Scheduler, rearm impl, logf func(string, ...any)) {
			old := s.At(10, func() { logf("old") })
			s.At(20, func() {
				tm := rearm(s, old, 30, func() { logf("new") })
				logf("old.Stop=%v new.Stop=%v live=%d", old.Stop(), tm.Stop(), s.Live())
			})
		},
		"stopped": func(s *Scheduler, rearm impl, logf func(string, ...any)) {
			old := s.At(10, func() { logf("old") })
			old.Stop()
			rearm(s, old, 30, func() { logf("new") })
			logf("live=%d", s.Live())
		},
		"zero Timer": func(s *Scheduler, rearm impl, logf func(string, ...any)) {
			tm := rearm(s, Timer{}, 30, func() { logf("new") })
			logf("scheduled=%v live=%d", tm.Scheduled(), s.Live())
		},
		"superseded handle": func(s *Scheduler, rearm impl, logf func(string, ...any)) {
			first := s.At(10, func() { logf("first") })
			second := rearm(s, first, 20, func() { logf("second") })
			// first is stale: re-arming it must not disturb second.
			rearm(s, first, 30, func() { logf("third") })
			logf("second.Stop=%v live=%d", second.Stop(), s.Live())
		},
		"channel event": func(s *Scheduler, rearm impl, logf func(string, ...any)) {
			call := func(_, _ any, n int) { logf("chan %d", n) }
			old := s.AtCallChan(10, 2, 0, call, nil, nil, 1)
			s.AtCallChan(20, 1, 0, call, nil, nil, 2)
			s.At(20, func() { logf("bystander") })
			rearm(s, old, 20, func() { logf("new") }) // an ordinary event now: before chan 2
		},
		"moved then stopped": func(s *Scheduler, rearm impl, logf func(string, ...any)) {
			tm := rearm(s, s.At(10, func() { logf("old") }), 20, func() { logf("new") })
			s.At(15, func() { logf("tm.Stop=%v live=%d", tm.Stop(), s.Live()) })
		},
		"another scheduler's timer": func(s *Scheduler, rearm impl, logf func(string, ...any)) {
			other := NewScheduler()
			old := other.At(10, func() { logf("old") })
			rearm(s, old, 20, func() { logf("new") })
			other.Run()
			logf("other live=%d", other.Live())
		},
	}
	for name, scenario := range scenarios {
		t.Run(name, func(t *testing.T) {
			got, want := run((*Scheduler).Rearm, scenario), run(stopThenAt, scenario)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("Rearm:     %q\nStop+At:   %q", got, want)
			}
		})
	}
}

// TestRearmLeavesNoResidue: a timer pushed back over and over keeps its
// one heap node.
func TestRearmLeavesNoResidue(t *testing.T) {
	s := NewScheduler()
	fired := 0
	fn := func() { fired++ }
	var tm Timer
	for i := 0; i < 100_000; i++ {
		tm = s.Rearm(tm, time.Duration(i)+time.Hour, fn)
		if i%1000 == 0 {
			// Time passes too: each step surfaces the stale node.
			s.At(time.Duration(i), func() {})
			s.Step()
		}
		if s.Pending() > 2 {
			t.Fatalf("after %d re-arms Pending() = %d, want <= 2", i+1, s.Pending())
		}
	}
	if s.Live() != 1 {
		t.Fatalf("Live() = %d, want 1", s.Live())
	}
	s.Run()
	if fired != 1 || s.Now() != tm.Deadline() {
		t.Fatalf("fired %d times, clock %v; want once at %v", fired, s.Now(), tm.Deadline())
	}
}

// TestRearmOldDeadlineNeverSurfaces: the stale node of a moved record is
// neither reported by PeekDeadline nor allowed to stop a run or advance
// the clock at its old deadline.
func TestRearmOldDeadlineNeverSurfaces(t *testing.T) {
	s := NewScheduler()
	var log []string
	ev := func(name string) func() {
		return func() { log = append(log, fmt.Sprintf("%s@%d", name, s.Now())) }
	}
	tm := s.At(10, ev("timer"))
	s.At(50, ev("other"))
	s.Rearm(tm, 100, ev("timer"))

	if at, ok := s.PeekDeadline(); !ok || at != 50 {
		t.Fatalf("PeekDeadline = (%d, %v), want (50, true)", at, ok)
	}
	s.RunUntil(20)
	s.RunBefore(30)
	if s.Now() != 30 || s.Executed() != 0 {
		t.Fatalf("runs over the old deadline: clock %d, %d events; want 30, 0", s.Now(), s.Executed())
	}
	s.Step()
	if at, ok := s.PeekDeadline(); !ok || at != 100 {
		t.Fatalf("PeekDeadline = (%d, %v), want (100, true)", at, ok)
	}
	s.Run()
	if got := fmt.Sprint(log); got != "[other@50 timer@100]" {
		t.Fatalf("fired %s, want [other@50 timer@100]", got)
	}
}

// TestEventRecSize keeps the pooled record to one cache line: the re-arm
// position (at, key) was paid for by folding the closure into a0, the
// cancelled flag into a nil callback and n into 32 bits.
func TestEventRecSize(t *testing.T) {
	if got := unsafe.Sizeof(eventRec{}); got != 64 {
		t.Fatalf("eventRec is %d bytes, want 64", got)
	}
}

func TestAtCallRejectsWideN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AtCall accepted an n that does not fit the record's 32 bits")
		}
	}()
	wide := int64(1) << 40
	if int64(int(wide)) != wide {
		t.Skip("int is 32 bits here")
	}
	NewScheduler().AtCall(0, func(_, _ any, _ int) {}, nil, nil, int(wide))
}
