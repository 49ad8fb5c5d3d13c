package topo_test

import (
	"fmt"
	"testing"
	"time"

	"netco/internal/netem"
	"netco/internal/packet"
	"netco/internal/topo"
	"netco/internal/traffic"
)

// TestOpenRule pins the one rule that picks an execution mode:
// partitioned over min(partitions, units) domains iff that is more than
// one and the cut delay is positive, serial otherwise.
func TestOpenRule(t *testing.T) {
	const d = 16 * time.Microsecond
	for _, tc := range []struct {
		partitions, units int
		delay             time.Duration
		want              int // domains; 1 = serial
	}{
		{0, 3, d, 1},
		{1, 3, d, 1},
		{2, 3, d, 2},
		{3, 3, d, 3},
		{8, 3, d, 3}, // capped at the unit count
		{4, 1, d, 1}, // one unit (the POX testbed) is never cut
		{4, 0, d, 1},
		{4, 6, 0, 1}, // a zero-delay cut has no lookahead bound
		{4, 6, -d, 1},
		{-2, 6, d, 1},
	} {
		t.Run(fmt.Sprintf("p%d-u%d-%v", tc.partitions, tc.units, tc.delay), func(t *testing.T) {
			var asked int
			w := topo.Open(tc.partitions, 0, topo.Cut{Units: tc.units, Delay: tc.delay,
				Assign: func(domains int) func(string) int {
					asked = domains
					return func(string) int { return 0 }
				}})
			if got := w.Domains(); got != tc.want {
				t.Fatalf("domains = %d, want %d", got, tc.want)
			}
			partitioned := tc.want > 1
			if (w.Sched == nil) != partitioned || (w.Engine != nil) != partitioned {
				t.Errorf("Sched=%v Engine=%v on %d domain(s): want exactly the one in use", w.Sched, w.Engine, tc.want)
			}
			if partitioned && (w.Runner != w.Engine || asked != tc.want || w.Net.Sched != nil) {
				t.Errorf("partitioned: Runner is not the engine, Assign saw %d domains (want %d), or Net.Sched is set", asked, tc.want)
			}
			if !partitioned && (w.Runner != w.Sched || asked != 0 || w.Net.Sched != w.Sched) {
				t.Errorf("serial: Runner/Net.Sched is not the scheduler, or Assign was called (%d)", asked)
			}
			w.Wired() // nothing wired: a no-op either way
		})
	}
}

// TestOpenLookaheadIsSmallestCrossingDelay wires four nodes in three
// units: after Wired the lookahead is the smallest delay among the links
// that cross a boundary, and a faster link inside a unit does not count.
// The lookahead is the epoch length, so a run busy at every microsecond
// for 70 µs takes 70/7 epochs plus its closing pass (71 at the 1 µs
// in-unit delay, 5 at 20 µs).
func TestOpenLookaheadIsSmallestCrossingDelay(t *testing.T) {
	unit := map[string]int{"a": 0, "a2": 0, "b": 1, "c": 2}
	w := topo.Open(8, 2, topo.Cut{Units: 3, Delay: 7 * time.Microsecond,
		Assign: func(domains int) func(string) int {
			return func(name string) int { return unit[name] % domains }
		}})
	if w.Domains() != 3 {
		t.Fatalf("domains = %d, want 3", w.Domains())
	}
	node := map[string]*traffic.Host{}
	for i, name := range []string{"a", "a2", "b", "c"} {
		node[name] = traffic.NewHost(w.Net.SchedulerFor(name), name, packet.HostMAC(uint32(i+1)), packet.HostIP(uint32(i+1)), traffic.HostConfig{})
	}
	link := func(x string, xPort int, y string, yPort int, delay time.Duration) {
		w.Net.Connect(node[x], xPort, node[y], yPort, netem.LinkConfig{Bandwidth: 1e9, Delay: delay})
	}
	link("a", 0, "a2", 0, 1*time.Microsecond) // inside unit 0
	link("a", 1, "b", 0, 20*time.Microsecond)
	link("b", 1, "c", 0, 7*time.Microsecond)
	w.Wired()
	sched := w.Net.SchedulerFor("a")
	var tick func()
	tick = func() { sched.After(time.Microsecond, tick) }
	sched.At(0, tick)
	w.Runner.RunUntil(70 * time.Microsecond)
	if got, want := w.Engine.Stats().Epochs, uint64(70/7+1); got != want {
		t.Errorf("epochs = %d, want %d (a 7µs lookahead)", got, want)
	}
}
