package par

import (
	"reflect"
	"testing"
	"time"
)

// fakeMeter is the clock and event counter a scripted choice reads.
type fakeMeter struct {
	now      time.Time
	executed uint64
	reads    int
}

func (m *fakeMeter) read() (time.Time, uint64) {
	m.reads++
	return m.now, m.executed
}

// step is one line of a script: n epochs costing wall and executing
// events each, or (n == 0) a gap between two run calls lasting wall.
type step struct {
	n      int
	wall   time.Duration
	events uint64
}

// span is a run of consecutive epochs executed the same way.
type span struct {
	way way
	n   int
}

// play drives a fresh choice through the script the way Engine does —
// resume at the start of a run, epoch before each epoch, suspend at the
// end — and returns where the epochs executed, run-length encoded.
func play(c *choice, m *fakeMeter, script []step) []span {
	var out []span
	c.resume(m.read())
	for _, s := range script {
		if s.n == 0 {
			c.suspend(m.read())
			m.now = m.now.Add(s.wall)
			c.resume(m.read())
			continue
		}
		for i := 0; i < s.n; i++ {
			w := c.epoch(m.read)
			if k := len(out) - 1; k >= 0 && out[k].way == w {
				out[k].n++
			} else {
				out = append(out, span{w, 1})
			}
			m.now = m.now.Add(s.wall)
			m.executed += s.events
		}
	}
	c.suspend(m.read())
	return out
}

func TestChoiceStretches(t *testing.T) {
	const us = time.Microsecond
	cases := []struct {
		name        string
		script      []step
		ways        []span
		nsPerEvent  [2]float64 // by way; 0 = never measured
		changeovers uint64
	}{
		{
			name:       "a run shorter than the first stretch stays on the workers and measures nothing",
			script:     []step{{trialEpochs, 40 * us, 100}},
			ways:       []span{{onWorkers, trialEpochs}},
			nsPerEvent: [2]float64{},
		},
		{
			name:       "the first stretch is followed by a trial of inline",
			script:     []step{{trialEpochs, 40 * us, 100}, {1, 24 * us, 100}},
			ways:       []span{{onWorkers, trialEpochs}, {inline, 1}},
			nsPerEvent: [2]float64{onWorkers: 400},
		},
		{
			name: "a trial cheaper beyond the margin changes over; the next trial comes after a long stretch",
			script: []step{
				{trialEpochs, 40 * us, 100}, // workers: 400 ns/event
				{trialEpochs, 24 * us, 100}, // inline trial: 240
				{longEpochs, 25 * us, 100},  // inline: 250
				{trialEpochs, 41 * us, 100}, // workers trial: 410, loses
				{1, 25 * us, 100},
			},
			ways:        []span{{onWorkers, trialEpochs}, {inline, trialEpochs + longEpochs}, {onWorkers, trialEpochs}, {inline, 1}},
			nsPerEvent:  [2]float64{onWorkers: 410, inline: 250},
			changeovers: 1,
		},
		{
			name: "a trial cheaper by less than the margin changes nothing",
			script: []step{
				{trialEpochs, 40 * us, 100}, // workers: 400
				{trialEpochs, 39 * us, 100}, // inline trial: 390 > 400 * 0.95
				{1, 40 * us, 100},
			},
			ways:       []span{{onWorkers, trialEpochs}, {inline, trialEpochs}, {onWorkers, 1}},
			nsPerEvent: [2]float64{onWorkers: 400, inline: 390},
		},
		{
			name: "time between two runs is charged to neither way",
			script: []step{
				{trialEpochs / 2, 40 * us, 100},
				{0, time.Hour, 0},
				{trialEpochs / 2, 40 * us, 100},
				{1, 24 * us, 100},
			},
			ways:       []span{{onWorkers, trialEpochs}, {inline, 1}},
			nsPerEvent: [2]float64{onWorkers: 400},
		},
		{
			name: "a stretch that executed nothing leaves its way's estimate alone",
			script: []step{
				{trialEpochs, 40 * us, 100}, // workers: 400
				{trialEpochs, 24 * us, 100}, // inline trial: 240, change over
				{longEpochs, 24 * us, 100},
				{trialEpochs, 5 * us, 0}, // idle workers trial: no events, no verdict
				{1, 24 * us, 100},
			},
			ways:        []span{{onWorkers, trialEpochs}, {inline, trialEpochs + longEpochs}, {onWorkers, trialEpochs}, {inline, 1}},
			nsPerEvent:  [2]float64{onWorkers: 400, inline: 240},
			changeovers: 1,
		},
		{
			name: "an idle first stretch gives the trial nothing to beat",
			script: []step{
				{trialEpochs, 5 * us, 0},
				{trialEpochs, 24 * us, 100},
				{1, 40 * us, 100},
			},
			ways:       []span{{onWorkers, trialEpochs}, {inline, trialEpochs}, {onWorkers, 1}},
			nsPerEvent: [2]float64{inline: 240},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newChoice()
			m := &fakeMeter{now: time.Unix(1000, 0)}
			got := play(&c, m, tc.script)
			if !reflect.DeepEqual(got, tc.ways) {
				t.Errorf("epochs ran %v, want %v", got, tc.ways)
			}
			if c.nsPerEvent != tc.nsPerEvent {
				t.Errorf("ns/event by way %v, want %v", c.nsPerEvent, tc.nsPerEvent)
			}
			if c.changeovers != tc.changeovers {
				t.Errorf("%d change-overs, want %d", c.changeovers, tc.changeovers)
			}
			// The meter is read at run boundaries and where a stretch
			// ends (no script line spans more than one) — never per epoch.
			max := 2
			for _, s := range tc.script {
				if s.n == 0 {
					max += 2
				} else {
					max++
				}
			}
			if m.reads > max {
				t.Errorf("meter read %d times, want at most %d", m.reads, max)
			}
		})
	}
}

func TestChoicePinnedNeverTries(t *testing.T) {
	for _, w := range []way{onWorkers, inline} {
		c := choice{cur: w, pinned: true}
		m := &fakeMeter{now: time.Unix(1000, 0)}
		got := play(&c, m, []step{{3 * longEpochs, 30 * time.Microsecond, 100}})
		if want := []span{{w, 3 * longEpochs}}; !reflect.DeepEqual(got, want) {
			t.Errorf("pinned to %v: epochs ran %v", w, got)
		}
	}
}
