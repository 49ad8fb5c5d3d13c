package traffic

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"netco/internal/sim"
)

// integratingExpander is a stub packet tier. While started it delivers
// expanderKeep of the rate it was last given — the packet tier loses
// some, so analytic accrual over a promoted stretch would count too much
// — integrated over virtual time. Like a real sink it reports whole
// bytes, counted from a sink that has already seen traffic. A retarget
// to the rate it already has folds nothing, so a settle that re-publishes
// an unchanged component (the reference oracle's) leaves its bytes
// bit-identical.
type integratingExpander struct {
	sched *sim.Scheduler
	on    bool
	rate  float64
	bits  float64
	since time.Duration
}

const (
	expanderKeep = 0.75
	expanderBase = 8e9 // bits the sink had counted before the flow's first promotion
)

func (e *integratingExpander) fold() {
	now := e.sched.Now()
	if e.on {
		e.bits += float64(expanderKeep * e.rate * (now - e.since).Seconds())
	}
	e.since = now
}

func (e *integratingExpander) SetRate(bps float64) {
	if bps != e.rate {
		e.fold()
		e.rate = bps
	}
}
func (e *integratingExpander) Start()                 { e.fold(); e.on = true }
func (e *integratingExpander) Stop()                  { e.fold(); e.on = false }
func (e *integratingExpander) DeliveredBytes() uint64 { e.fold(); return uint64(e.bits / 8) }

// ledgerFlow is one flow of the conservation script with the rate the
// ledger last saw it hold, the share of it delivered (expanderKeep while
// promoted), and since when.
type ledgerFlow struct {
	f     *FluidFlow
	exp   *integratingExpander
	rate  float64
	keep  float64
	since time.Duration
}

// TestFluidBytesConserved is a delivered-bit oracle that shares no code
// with the allocator's accrual. A ledger integrates every flow's rate
// over virtual time on its own — reading rates at each settle through
// the settle hook, folding at each Stop, the only other place a rate
// changes, and at each promote and demote, where the delivered share
// changes — while a randomized script starts, stops, restarts, promotes,
// demotes, releases and recycles flows. After every settle, the live
// flows' DeliveredBits plus RetiredBits must equal the ledger within
// 1e-9 relative: a stale recycled record, a double or a lost accrual
// across a promotion shows up as a gap. The stub expander reports whole
// bytes, so each promotion may lose up to 8 bits to rounding; capacities
// near 1 Tbit/s keep that far below the tolerance.
func TestFluidBytesConserved(t *testing.T) {
	certifyEverySettle(t)
	caps := []float64{7e11, 11e11, 5e11, 9e11, 13e11}
	const nf, epochs = 16, 30
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sched, links := fluidRig(t, caps)
		fn := NewFluidNet(sched, FluidConfig{Epoch: 10 * time.Millisecond})
		epoch := fn.Epoch()
		flows := make([]*ledgerFlow, nf) // nil: an empty slot
		var want float64
		settles, promotions := 0, 0

		fold := func(r *ledgerFlow) {
			now := sched.Now()
			want += float64(r.keep * r.rate * (now - r.since).Seconds())
			r.since = now
		}
		check := func(what string) {
			t.Helper()
			got := fn.RetiredBits()
			for _, r := range flows {
				if r != nil {
					got += r.f.DeliveredBits()
				}
			}
			if math.Abs(got-want) > 1e-9*want {
				t.Fatalf("seed %d, %s at %v: delivered %v bits, the ledger %v (gap %.3g)",
					seed, what, sched.Now(), got, want, (got-want)/want)
			}
		}
		certify := settleHook
		settleHook = func(fn *FluidNet) {
			certify(fn)
			for _, r := range flows {
				if r != nil {
					fold(r)
					r.rate = r.f.Rate()
				}
			}
			settles++
			check("settle")
		}
		stop := func(r *ledgerFlow) { // Stop also demotes
			if r.f.Active() {
				fold(r)
				r.rate, r.keep = 0, 1
			}
		}
		newFlow := func(i int) {
			lo := rng.Intn(len(links))
			hi := min(len(links), lo+1+rng.Intn(3))
			end := rng.Intn(2)
			var hops []Hop
			for j := lo; j < hi; j++ {
				hops = append(hops, Hop{Link: links[j], End: end})
			}
			f := fn.NewFlow(float64(1+rng.Intn(8))*1e11, hops)
			exp := &integratingExpander{sched: sched, bits: expanderBase}
			flows[i] = &ledgerFlow{f: f, exp: exp, keep: 1, since: sched.Now()}
		}
		for i := range flows {
			newFlow(i)
		}

		for e := 0; e < epochs; e++ {
			sched.After(time.Duration(e)*epoch+time.Millisecond, func() {
				for o := 0; o < 5; o++ {
					i := rng.Intn(nf)
					r := flows[i]
					if r == nil {
						newFlow(i) // served from the free list once any flow retired
						continue
					}
					switch rng.Intn(5) {
					case 0:
						if r.f.Active() {
							stop(r)
							r.f.Stop()
						} else {
							r.f.Start()
						}
					case 1:
						if r.f.Active() { // a restart at the same instant
							stop(r)
							r.f.Stop()
							r.f.Start()
						}
					case 2:
						switch {
						case r.f.acct().promoted:
							fold(r)
							r.keep = 1
							r.f.Demote()
						case r.f.Active():
							fold(r)
							r.keep = expanderKeep
							r.f.Promote(r.exp)
							promotions++
						}
					case 3:
						stop(r)
						r.f.Release()
						flows[i] = nil
					case 4:
						r.f.Start()
					}
				}
			})
		}
		sched.RunFor(time.Duration(epochs+1) * epoch)

		// Teardown: stop everything (the settle sweeps), then release every
		// flow, which retires each at once.
		for _, r := range flows {
			if r != nil {
				stop(r)
				r.f.Stop()
			}
		}
		sched.RunFor(epoch)
		for i, r := range flows {
			if r != nil {
				r.f.Release()
				flows[i] = nil
			}
		}
		check("teardown")
		settleHook = certify

		if settles < epochs/2 || promotions == 0 || fn.Recycled() == 0 || want == 0 {
			t.Fatalf("seed %d: script too tame: %d settles, %d promotions, %d recycled, %v bits",
				seed, settles, promotions, fn.Recycled(), want)
		}
		t.Logf("seed %d: %d settles, %d promotions, %d recycled, %.4g bits", seed, settles, promotions, fn.Recycled(), want)
	}
}
