package sim

import "time"

// Wheel exists only for bench/probes.go, which prices a departure's arm
// and fire through NewWheel and After. It arms straight on the
// Scheduler, the simulator's one timer facility, and goes with ROADMAP
// item 2's bench/ edit.
type Wheel struct{ s *Scheduler }

// NewWheel returns a Wheel arming on s; the tick is ignored.
func NewWheel(s *Scheduler, _ time.Duration) *Wheel { return &Wheel{s} }

// After is s.After.
func (w *Wheel) After(d time.Duration, fn func()) Timer { return w.s.After(d, fn) }
