package sim

import (
	"time"
)

// refQueue is the scheduler as it was before the radix queue: one 4-ary
// min-heap over every node, ordered by (at, band, key), with the same
// record arena, lazy cancellation and re-arm-in-place. It exists only as
// the reference TestQueueMatchesReference drives in lockstep with
// Scheduler; keep it the plainest correct version, not a fast one.
type refQueue struct {
	now        time.Duration
	seq        uint64
	firedBelow uint64
	heap       []heapNode
	recs       []eventRec
	free       []int32
	live       int
}

// refTimer is refQueue's Timer.
type refTimer struct {
	q   *refQueue
	idx int32
	gen uint32
}

func (q *refQueue) Now() time.Duration { return q.now }
func (q *refQueue) Pending() int       { return len(q.heap) }
func (q *refQueue) Live() int          { return q.live }
func (q *refQueue) OrderStamp() uint64 { return q.seq }

func (q *refQueue) At(t time.Duration, fn func()) refTimer {
	return q.AtCall(t, callFunc, fn, nil, 0)
}

func (q *refQueue) AtCall(t time.Duration, fn CallFunc, a0, a1 any, n int) refTimer {
	idx, rec := q.allocRec()
	rec.setCall(fn, a0, a1, n)
	key := q.seq
	q.seq++
	return q.arm(t, 0, key, idx, rec)
}

func (q *refQueue) AtCallChan(t time.Duration, ch, seq uint64, fn CallFunc, a0, a1 any, n int) refTimer {
	idx, rec := q.allocRec()
	rec.setCall(fn, a0, a1, n)
	return q.arm(t, uint32(ch+1), seq, idx, rec)
}

func (q *refQueue) allocRec() (int32, *eventRec) {
	if n := len(q.free); n > 0 {
		idx := q.free[n-1]
		q.free = q.free[:n-1]
		return idx, &q.recs[idx]
	}
	q.recs = append(q.recs, eventRec{})
	return int32(len(q.recs) - 1), &q.recs[len(q.recs)-1]
}

func (q *refQueue) arm(t time.Duration, band uint32, key uint64, idx int32, rec *eventRec) refTimer {
	if t < q.now {
		t = q.now
	}
	rec.at, rec.key = t, key
	if band != 0 {
		rec.at = ^t
	}
	q.push(heapNode{at: t, band: band, key: key, rec: idx})
	q.live++
	return refTimer{q: q, idx: idx, gen: rec.gen}
}

func (q *refQueue) Rearm(t refTimer, at time.Duration, fn func()) refTimer {
	if at < q.now {
		at = q.now
	}
	if t.q == q {
		rec := &q.recs[t.idx]
		if rec.gen == t.gen && rec.call != nil && rec.at >= 0 && at >= rec.at {
			rec.at, rec.key = at, q.seq
			q.seq++
			rec.gen++
			rec.call, rec.a0, rec.a1, rec.n = callFunc, fn, nil, 0
			return refTimer{q: q, idx: t.idx, gen: rec.gen}
		}
	}
	t.Stop()
	return q.At(at, fn)
}

func (t refTimer) Stop() bool {
	if t.q == nil {
		return false
	}
	rec := &t.q.recs[t.idx]
	if rec.gen != t.gen || rec.call == nil {
		return false
	}
	rec.call, rec.a0, rec.a1 = nil, nil, nil
	t.q.live--
	return true
}

func (q *refQueue) top() (heapNode, bool) {
	for len(q.heap) > 0 {
		node := q.heap[0]
		rec := &q.recs[node.rec]
		switch {
		case rec.call == nil:
			q.popMin()
			q.release(node.rec)
		case rec.key != node.key:
			q.heap[0] = heapNode{at: rec.at, key: rec.key, rec: node.rec}
			q.siftDown(0)
		default:
			return node, true
		}
	}
	return heapNode{}, false
}

func (q *refQueue) fire(node heapNode) {
	q.popMin()
	rec := &q.recs[node.rec]
	call, a0, a1, n := rec.call, rec.a0, rec.a1, int(rec.n)
	q.release(node.rec)
	q.live--
	q.now = node.at
	if node.band == 0 {
		q.firedBelow = node.key + 1
	} else {
		q.instantDone()
	}
	call(a0, a1, n)
}

func (q *refQueue) instantDone() {
	q.seq++
	q.firedBelow = q.seq
}

func (q *refQueue) Step() bool {
	node, ok := q.top()
	if ok {
		q.fire(node)
	}
	return ok
}

func (q *refQueue) RunUntil(t time.Duration) {
	for {
		node, ok := q.top()
		if !ok || node.at > t {
			break
		}
		q.fire(node)
	}
	if q.now <= t {
		q.now = t
		q.instantDone()
	}
}

func (q *refQueue) RunBefore(t time.Duration) {
	for {
		node, ok := q.top()
		if !ok || node.at >= t {
			break
		}
		q.fire(node)
	}
	if q.now < t {
		q.now = t
		q.firedBelow = 0
	}
}

func (q *refQueue) PeekDeadline() (time.Duration, bool) {
	node, ok := q.top()
	return node.at, ok
}

func (q *refQueue) release(idx int32) {
	rec := &q.recs[idx]
	rec.call, rec.a0, rec.a1 = nil, nil, nil
	rec.gen++
	q.free = append(q.free, idx)
}

func (q *refQueue) push(n heapNode) {
	q.heap = append(q.heap, n)
	h := q.heap
	for i := len(h) - 1; i > 0; {
		p := (i - 1) >> 2
		if !nodeLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (q *refQueue) popMin() {
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap = q.heap[:n]
	q.siftDown(0)
}

func (q *refQueue) siftDown(i int) {
	h := q.heap
	for {
		best := i
		for c := i<<2 + 1; c <= i<<2+4 && c < len(h); c++ {
			if nodeLess(h[c], h[best]) {
				best = c
			}
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}
