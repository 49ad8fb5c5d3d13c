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
		{Target: rec, At: 10 * time.Millisecond, Down: 5 * time.Millisecond, Cycles: 3, Period: 20 * time.Millisecond},
	}}
	if err := p.Schedule(); err != nil {
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
		{Target: rec, At: 0, Down: 4 * time.Millisecond, Cycles: 2}, // period defaults to 2×Down
	}}
	if err := p.Schedule(); err != nil {
		t.Fatal(err)
	}
	if rec.windows[1][0] != 8*time.Millisecond {
		t.Fatalf("second cycle at %v, want 8ms (default half-duty period)", rec.windows[1][0])
	}
}

func TestPlanValidation(t *testing.T) {
	bad := []Plan{
		{Actions: []Action{{At: -time.Millisecond, Down: time.Millisecond}}},
		{Actions: []Action{{At: 0, Down: 0}}},
		{Actions: []Action{{At: 0, Down: 10 * time.Millisecond, Cycles: 2, Period: 5 * time.Millisecond}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("plan %d validated, want error", i)
		}
	}
	// A plan is validated before its targets exist, but only scheduled
	// once every action has one; a nil target arms nothing.
	rec := &recorder{}
	p := Plan{Actions: []Action{
		{Target: rec, At: 0, Down: time.Millisecond},
		{At: 0, Down: time.Millisecond},
	}}
	if err := p.Validate(); err != nil {
		t.Fatalf("targetless plan refused by Validate: %v", err)
	}
	if err := p.Schedule(); err == nil {
		t.Fatal("nil target scheduled, want error")
	}
	if len(rec.windows) != 0 {
		t.Fatalf("refused plan armed %d outages", len(rec.windows))
	}
}

// TestLastRecovery: the last heal is the latest end of any outage, which
// under overlapping flap trains need not belong to the action that
// starts last or lasts longest.
func TestLastRecovery(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name    string
		actions []Action
		want    time.Duration
	}{
		{"empty", nil, 0},
		{"single", []Action{{At: 5 * ms, Down: 10 * ms}}, 15 * ms},
		// The long single outage (5..15) overlaps a short train whose
		// second cycle heals at 5+4+2 = 11.
		{"train inside outage", []Action{
			{At: 5 * ms, Down: 10 * ms},
			{At: 5 * ms, Down: 2 * ms, Cycles: 2, Period: 4 * ms},
		}, 15 * ms},
		// A train that starts first but runs longest: its third cycle
		// heals at 1+2·10+3 = 24, after the later-starting outage (20..22).
		{"train outlasts later outage", []Action{
			{At: 1 * ms, Down: 3 * ms, Cycles: 3, Period: 10 * ms},
			{At: 20 * ms, Down: 2 * ms},
		}, 24 * ms},
		// Two overlapping trains, the default period (2×Down) on one:
		// 2+3·(2·2)+2 = 16 against 3+1·5+1 = 9.
		{"default period", []Action{
			{At: 2 * ms, Down: 2 * ms, Cycles: 4},
			{At: 3 * ms, Down: 1 * ms, Cycles: 2, Period: 5 * ms},
		}, 16 * ms},
	}
	for _, tc := range cases {
		if got := (Plan{Actions: tc.actions}).LastRecovery(); got != tc.want {
			t.Errorf("%s: LastRecovery = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestNodeTargetFiresOnScheduler(t *testing.T) {
	sched := sim.NewScheduler()
	var downs, ups []time.Duration
	tgt := NodeTarget(sched,
		func() { downs = append(downs, sched.Now()) },
		func() { ups = append(ups, sched.Now()) },
	)
	p := Plan{Actions: []Action{{Target: tgt, At: 3 * time.Millisecond, Down: 2 * time.Millisecond, Cycles: 2, Period: 10 * time.Millisecond}}}
	if err := p.Schedule(); err != nil {
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
