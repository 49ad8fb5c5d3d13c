package par

import "time"

// way is where an epoch executes. Both ways run every domain's events
// in the same order (a domain's scheduler is only ever advanced by one
// goroutine at a time, to the same bound), so which one is taken is
// invisible to the simulation.
type way uint8

const (
	onWorkers way = iota // each worker goroutine advances its static slice of domains
	inline               // the calling goroutine advances every domain in turn
)

func (w way) other() way { return w ^ 1 }

// The engine runs in stretches of epochs and reads the clock only where
// one ends. The figures behind the constants are in DESIGN.md §8.
const (
	// trialEpochs is the length of the opening stretch and of every
	// trial. An epoch costs 20-200 µs of wall time on the measured
	// fabrics, so 256 of them span 5-50 ms: long enough that a GC cycle
	// or a descheduled worker does not decide the comparison, short
	// enough that a 20 ms warm-up already contains the first verdict.
	trialEpochs = 256
	// longEpochs is the stretch run in the current way before the other
	// one is tried again. A losing trial costs at most its own length
	// at the slower way's price, so 16:1 bounds the price of staying
	// adaptive at a few percent.
	longEpochs = 16 * trialEpochs
	// switchMargin is how much cheaper per event a trial must be before
	// the engine changes over. It is not a noise filter — one trial's
	// reading spreads by ±20 %, more than any margin worth having, and a
	// change-over moves no state, so going back and forth between two
	// ways at parity costs nothing. It is the gain below which the
	// engine does not bother: ignoring a way that is truly less than 5 %
	// cheaper costs less than 5 %.
	switchMargin = 0.05
)

// choice is the stretch state machine. It is a pure function of the
// (clock, executed-events) readings it is handed: Engine passes
// time.Now() and Executed(), tests pass a script.
//
// A stretch may span several RunFor/RunUntil/Run calls; suspend and
// resume bracket each call so that wall time between two calls is
// charged to neither way.
type choice struct {
	cur    way  // the way long stretches run
	trial  bool // the open stretch is a trial of cur.other()
	pinned bool // tests: stay on cur, never try the other
	left   int  // epochs left in the open stretch

	// nsPerEvent is each way's latest measured wall cost per executed
	// event; 0 until that way has closed a stretch that executed any.
	nsPerEvent [2]float64

	// The open stretch's account: what the closed segments (run calls)
	// banked, and where the open segment began.
	wall   time.Duration
	events uint64
	mark   time.Time
	markEv uint64

	changeovers uint64
}

// newChoice starts on the workers with a short stretch, so that runs of
// a few epochs behave exactly as they did before the choice existed.
func newChoice() choice { return choice{cur: onWorkers, left: trialEpochs} }

// way returns where the open stretch's epochs execute.
func (c *choice) way() way {
	if c.trial {
		return c.cur.other()
	}
	return c.cur
}

// epoch accounts for one epoch and returns where it executes. read is
// consulted only when the epoch opens a new stretch.
func (c *choice) epoch(read func() (now time.Time, executed uint64)) way {
	if c.left == 0 {
		c.turn(read())
	}
	c.left--
	return c.way()
}

// resume opens a segment: a run call begins.
func (c *choice) resume(now time.Time, executed uint64) { c.mark, c.markEv = now, executed }

// suspend banks the open segment: a run call ends.
func (c *choice) suspend(now time.Time, executed uint64) {
	c.wall += now.Sub(c.mark)
	c.events += executed - c.markEv
}

// turn closes the open stretch, records what it cost, and opens the
// next one: a trial of the other way after an ordinary stretch; after a
// trial, a long stretch in whichever way the two latest measurements
// favour.
func (c *choice) turn(now time.Time, executed uint64) {
	c.suspend(now, executed)
	c.resume(now, executed)
	if c.events > 0 {
		c.nsPerEvent[c.way()] = float64(c.wall) / float64(c.events)
	}
	c.wall, c.events = 0, 0
	switch {
	case c.pinned:
		c.left = longEpochs
	case !c.trial:
		c.trial, c.left = true, trialEpochs
	default:
		tried, kept := c.nsPerEvent[c.cur.other()], c.nsPerEvent[c.cur]
		if tried > 0 && kept > 0 && tried < kept*(1-switchMargin) {
			c.cur = c.cur.other()
			c.changeovers++
		}
		c.trial, c.left = false, longEpochs
	}
}
