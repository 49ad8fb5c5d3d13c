package chaos

import (
	"testing"
	"time"

	"netco/internal/sim"
)

// recorder captures outage windows without running anything.
type recorder struct{ windows [][2]time.Duration }

func (r *recorder) ScheduleOutage(failAt, recoverAt time.Duration) {
	r.windows = append(r.windows, [2]time.Duration{failAt, recoverAt})
}

func TestPlanScheduleExpandsFlaps(t *testing.T) {
	rec := &recorder{}
	p := Plan{Actions: []Action{
		{Target: "r0", At: 10 * time.Millisecond, Down: 5 * time.Millisecond, Cycles: 3, Period: 20 * time.Millisecond},
	}}
	if err := p.Schedule(Registry{"r0": rec}); err != nil {
		t.Fatal(err)
	}
	want := [][2]time.Duration{
		{10 * time.Millisecond, 15 * time.Millisecond},
		{30 * time.Millisecond, 35 * time.Millisecond},
		{50 * time.Millisecond, 55 * time.Millisecond},
	}
	if len(rec.windows) != len(want) {
		t.Fatalf("scheduled %d outages, want %d", len(rec.windows), len(want))
	}
	for i, w := range want {
		if rec.windows[i] != w {
			t.Fatalf("outage %d = %v, want %v", i, rec.windows[i], w)
		}
	}
}

func TestPlanDefaultPeriodAndCycles(t *testing.T) {
	rec := &recorder{}
	p := Plan{Actions: []Action{
		{Target: "l", At: 0, Down: 4 * time.Millisecond, Cycles: 2}, // period defaults to 2×Down
	}}
	if err := p.Schedule(Registry{"l": rec}); err != nil {
		t.Fatal(err)
	}
	if rec.windows[1][0] != 8*time.Millisecond {
		t.Fatalf("second cycle at %v, want 8ms (default half-duty period)", rec.windows[1][0])
	}
}

func TestPlanValidation(t *testing.T) {
	bad := []Plan{
		{Actions: []Action{{Target: "", At: 0, Down: time.Millisecond}}},
		{Actions: []Action{{Target: "x", At: -time.Millisecond, Down: time.Millisecond}}},
		{Actions: []Action{{Target: "x", At: 0, Down: 0}}},
		{Actions: []Action{{Target: "x", At: 0, Down: 10 * time.Millisecond, Cycles: 2, Period: 5 * time.Millisecond}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("plan %d validated, want error", i)
		}
	}
	if err := (Plan{Actions: []Action{{Target: "x", At: 0, Down: time.Millisecond}}}).Schedule(Registry{}); err == nil {
		t.Fatal("unknown target scheduled, want error")
	}
}

func TestTimelineAndLastRecovery(t *testing.T) {
	p := Plan{Actions: []Action{
		{Target: "b", At: 5 * time.Millisecond, Down: 10 * time.Millisecond},
		{Target: "a", At: 5 * time.Millisecond, Down: 2 * time.Millisecond, Cycles: 2, Period: 4 * time.Millisecond},
	}}
	tl := p.Timeline()
	if len(tl) != 6 {
		t.Fatalf("timeline has %d transitions, want 6", len(tl))
	}
	// Ties at 5ms: downs first, then by name.
	if tl[0] != (Transition{At: 5 * time.Millisecond, Target: "a", Down: true}) {
		t.Fatalf("tl[0] = %+v", tl[0])
	}
	if tl[1] != (Transition{At: 5 * time.Millisecond, Target: "b", Down: true}) {
		t.Fatalf("tl[1] = %+v", tl[1])
	}
	if got, want := p.LastRecovery(), 15*time.Millisecond; got != want {
		t.Fatalf("LastRecovery = %v, want %v", got, want)
	}
}

func TestNodeTargetFiresOnScheduler(t *testing.T) {
	sched := sim.NewScheduler()
	var downs, ups []time.Duration
	tgt := NodeTarget(sched,
		func() { downs = append(downs, sched.Now()) },
		func() { ups = append(ups, sched.Now()) },
	)
	p := Plan{Actions: []Action{{Target: "n", At: 3 * time.Millisecond, Down: 2 * time.Millisecond, Cycles: 2, Period: 10 * time.Millisecond}}}
	if err := p.Schedule(Registry{"n": tgt}); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if len(downs) != 2 || downs[0] != 3*time.Millisecond || downs[1] != 13*time.Millisecond {
		t.Fatalf("downs = %v", downs)
	}
	if len(ups) != 2 || ups[0] != 5*time.Millisecond || ups[1] != 15*time.Millisecond {
		t.Fatalf("ups = %v", ups)
	}
}
