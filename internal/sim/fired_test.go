package sim

import "testing"

// TestFiredAtRunBoundaries walks Fired through the places where no real
// event stands for the hypothetical one (the random script's probes are
// real events, and a real event leaves its own mark on the order): code
// between runs, the end of each kind of run, and channel events.
func TestFiredAtRunBoundaries(t *testing.T) {
	s := NewScheduler()
	want := func(what string, got, want bool) {
		t.Helper()
		if got != want {
			t.Fatalf("%s: Fired = %v, want %v", what, got, want)
		}
	}

	setup := s.OrderStamp()
	want("set-up code, nothing has run", s.Fired(0, setup), false)
	s.RunUntil(0)
	want("after RunUntil(0), scheduled before it", s.Fired(0, setup), true)
	want("after RunUntil(0), scheduled after it", s.Fired(0, s.OrderStamp()), false)

	var inLast uint64
	s.At(5, func() { inLast = s.OrderStamp() })
	s.Run()
	want("after Run, scheduled by the last event for its own instant", s.Fired(5, inLast), true)
	want("after Run, scheduled after it", s.Fired(5, s.OrderStamp()), false)

	before := s.OrderStamp()
	s.RunBefore(10)
	want("after RunBefore(10), due at 10, scheduled long ago", s.Fired(10, setup), false)
	want("after RunBefore(10), due at 9, scheduled just before", s.Fired(9, before), true)

	// Two deliveries at one instant: what the first schedules for that
	// instant runs between them.
	var inFirst uint64
	s.AtCallChan(20, 1, 0, func(_, _ any, _ int) {
		want("in a channel event, scheduled before it began", s.Fired(20, before), true)
		inFirst = s.OrderStamp()
		want("in a channel event, scheduled by it", s.Fired(20, inFirst), false)
	}, nil, nil, 0)
	s.AtCallChan(20, 1, 1, func(_, _ any, _ int) {
		want("in the next channel event", s.Fired(20, inFirst), true)
	}, nil, nil, 0)
	s.RunUntil(20)
	if s.Executed() != 3 {
		t.Fatalf("executed %d events, want 3", s.Executed())
	}
}
