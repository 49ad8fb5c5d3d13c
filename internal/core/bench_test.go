package core

import (
	"testing"
	"time"

	"netco/internal/packet"
)

// benchFrames pre-marshals n distinct UDP frames of the given payload
// size, so benchmarks and allocation guards exercise the engine without
// charging packet construction to the measured path.
func benchFrames(n, payload int) [][]byte {
	frames := make([][]byte, n)
	src := packet.Endpoint{MAC: packet.HostMAC(1), IP: packet.HostIP(1), Port: 1000}
	dst := packet.Endpoint{MAC: packet.HostMAC(2), IP: packet.HostIP(2), Port: 2000}
	for i := range frames {
		body := make([]byte, payload)
		body[0], body[1], body[2] = byte(i), byte(i>>8), byte(i>>16)
		frames[i] = packet.NewUDP(src, dst, body).Marshal()
	}
	return frames
}

// ingestRotation pushes every frame through a full 3-copy majority cycle
// and then expires the batch so all entries retire and recycle. One call
// is the engine's steady state in miniature: cache grows, releases, and
// drains back to empty with every object returning to a pool.
func ingestRotation(e *Engine, frames [][]byte, now time.Duration) time.Duration {
	for _, w := range frames {
		now += time.Microsecond
		e.Ingest(now, 0, w, nil)
		e.Ingest(now, 1, w, nil)
		e.Ingest(now, 2, w, nil)
	}
	now += e.cfg.HoldTimeout + time.Microsecond
	e.Expire(now)
	return now
}

// countReleases installs an OnEvent hook of the shape a deployment uses —
// a closure over its own state — so the guards below measure the path
// through the hook.
func countReleases(e *Engine) *int {
	n := new(int)
	e.OnEvent = func(ev Event) {
		if ev.Kind == EventRelease {
			*n++
		}
	}
	return n
}

// TestEngineIngestSteadyStateZeroAlloc is the tentpole's regression guard:
// once the pools are warm, a full ingest→release→expire→recycle cycle must
// perform zero heap allocations. Any future change that re-introduces a
// per-packet allocation (boxed hashing, event slices, entry churn, fifo
// growth) fails this test rather than silently regressing throughput.
func TestEngineIngestSteadyStateZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode Mode
	}{
		{"bitexact", ModeBitExact},
		{"hashed", ModeHashed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(Config{K: 3, Mode: tc.mode, HoldTimeout: time.Millisecond})
			released := countReleases(e)
			frames := benchFrames(64, 256)
			now := time.Duration(0)
			// Warm the pools: entry free list, wire buffers, ring and
			// heap capacity.
			for i := 0; i < 4; i++ {
				now = ingestRotation(e, frames, now)
			}
			got := testing.AllocsPerRun(50, func() {
				now = ingestRotation(e, frames, now)
			})
			if got != 0 {
				t.Fatalf("steady-state ingest allocated %.1f objects per rotation, want 0", got)
			}
			if e.Size() != 0 {
				t.Fatalf("cache not drained: %d entries live", e.Size())
			}
			if uint64(*released) != e.Stats().Released {
				t.Fatalf("hook saw %d releases, engine counted %d", *released, e.Stats().Released)
			}
		})
	}
}

// TestCompareEncapZeroAlloc guards the compare channel's per-copy
// encapsulation: wrapping a frame in a PacketIn toward the compare, and
// a release in a PacketOut back to the edge, allocates nothing once the
// pooled frame's payload has the capacity.
func TestCompareEncapZeroAlloc(t *testing.T) {
	wire := benchFrames(1, 1470)[0]
	in, out := &packet.Packet{}, &packet.Packet{}
	encapPacketInInto(in, MaxK+2, wire)
	encapPacketOutInto(out, wire)
	if got := testing.AllocsPerRun(200, func() {
		encapPacketInInto(in, MaxK+2, wire)
		encapPacketOutInto(out, wire)
	}); got != 0 {
		t.Fatalf("encapsulating one copy and its release allocated %.1f objects, want 0", got)
	}
}

// BenchmarkEngineIngestSteadyState measures the pooled ingest path: cost
// of one 3-copy majority decision (hash ×3, match, release, and the
// amortised expiry sweep) with zero allocations per operation.
func BenchmarkEngineIngestSteadyState(b *testing.B) {
	for _, size := range []int{64, 1470} {
		b.Run(map[int]string{64: "64B", 1470: "1470B"}[size], func(b *testing.B) {
			e := NewEngine(Config{K: 3, HoldTimeout: time.Millisecond})
			countReleases(e)
			frames := benchFrames(64, size)
			now := ingestRotation(e, frames, 0) // warm pools
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := frames[i&63]
				now += time.Microsecond
				e.Ingest(now, 0, w, nil)
				e.Ingest(now, 1, w, nil)
				e.Ingest(now, 2, w, nil)
				if i&63 == 63 {
					now += e.cfg.HoldTimeout
					e.Expire(now)
				}
			}
		})
	}
}

// BenchmarkEngineExpire measures the retirement sweep in isolation: fill
// the cache with suppressed (minority) entries, then expire them all.
func BenchmarkEngineExpire(b *testing.B) {
	e := NewEngine(Config{K: 3, HoldTimeout: time.Millisecond})
	countReleases(e)
	frames := benchFrames(256, 128)
	b.ReportAllocs()
	b.ResetTimer()
	now := time.Duration(0)
	for i := 0; i < b.N; i++ {
		w := frames[i&255]
		now += time.Microsecond
		e.Ingest(now, 0, w, nil)
		if i&255 == 255 {
			now += e.Config().HoldTimeout
			e.Expire(now)
		}
	}
}

// TestEngineFifoMemoryBounded is the regression test for the fifo
// backing-array leak: the previous implementation advanced the queue with
// fifo = fifo[1:], so the backing array retained every entry ever queued
// until Go happened to reallocate it. With the ring buffer, sustained
// churn far beyond the live population must leave the backing capacity
// proportional to the peak live size, not to the total ingested.
func TestEngineFifoMemoryBounded(t *testing.T) {
	e := NewEngine(Config{K: 3, HoldTimeout: time.Millisecond})
	src := packet.Endpoint{MAC: packet.HostMAC(1), IP: packet.HostIP(1), Port: 1000}
	dst := packet.Endpoint{MAC: packet.HostMAC(2), IP: packet.HostIP(2), Port: 2000}

	const total = 50_000
	const window = time.Millisecond // matches HoldTimeout
	peak := 0
	for i := 0; i < total; i++ {
		body := []byte{byte(i), byte(i >> 8), byte(i >> 16), 0}
		w := packet.NewUDP(src, dst, body).Marshal()
		now := time.Duration(i) * 10 * time.Microsecond
		e.Ingest(now, 0, w, nil)
		e.Ingest(now, 1, w, nil)
		e.Expire(now)
		if e.Size() > peak {
			peak = e.Size()
		}
	}
	// Live population is bounded by HoldTimeout/interarrival ≈ 100.
	if peak > 256 {
		t.Fatalf("peak live entries %d, expected bounded by expiry window", peak)
	}
	// The ring holds at most the next power of two above the peak; the
	// old slice-advance fifo would have grown toward `total` here.
	if cap := len(e.fifo.buf); cap > 1024 {
		t.Fatalf("fifo backing array capacity %d after %d entries churned; leak (peak live %d)",
			cap, total, peak)
	}
	if e.Size() > 200 {
		t.Fatalf("cache failed to drain: %d live", e.Size())
	}
}

// TestEngineCleanupAtExactCapacity: a cache at exactly CacheCapacity is
// not over capacity — no pass runs and nothing is charged.
func TestEngineCleanupAtExactCapacity(t *testing.T) {
	e := NewEngine(Config{K: 3, HoldTimeout: time.Minute, CacheCapacity: 8})
	frames := benchFrames(8, 64)
	for i, w := range frames {
		if evs := ingest(e, time.Duration(i)*time.Microsecond, 0, w, nil); len(evs) != 0 {
			t.Fatalf("copy %d at or under capacity produced %v", i+1, kinds(evs))
		}
	}
	if e.Size() != 8 {
		t.Fatalf("size = %d, want 8", e.Size())
	}
	if e.Stats().CleanupPasses != 0 {
		t.Fatal("cleanup pass counted at exactly CacheCapacity")
	}
	// One entry beyond capacity must trigger a pass down to half.
	extra := benchFrames(9, 96)[8]
	evs := ingest(e, time.Millisecond, 0, extra, nil)
	if len(evs) == 0 || evs[0].Kind != EventCleanup || evs[0].Copies == 0 {
		t.Fatalf("capacity+1 produced %v, want a cleanup pass that scans", kinds(evs))
	}
	if want := 8 / 2; e.Size() != want {
		t.Fatalf("size after cleanup = %d, want %d", e.Size(), want)
	}
}

// TestEngineCleanupSameTickRelease: an entry that reaches majority and is
// cleaned up in the same virtual instant must be released exactly once and
// never also reported suppressed — the cleanup pass sees released=true.
func TestEngineCleanupSameTickRelease(t *testing.T) {
	e := NewEngine(Config{K: 3, HoldTimeout: time.Minute, CacheCapacity: 2})
	frames := benchFrames(3, 64)
	now := 5 * time.Microsecond

	// Two old minority entries fill the cache.
	e.Ingest(now, 0, frames[0], nil)
	e.Ingest(now, 0, frames[1], nil)
	// The third overflows it: the pass retires the two oldest.
	overflow := ingest(e, now, 0, frames[2], nil)
	if !hasKind(overflow, EventCleanup) || e.Size() != 1 {
		t.Fatalf("overflow produced %v, size %d; want a pass down to 1", kinds(overflow), e.Size())
	}
	// It reaches majority at the same tick, then more entries push it out.
	if evs := ingest(e, now, 1, frames[2], nil); !hasKind(evs, EventRelease) {
		t.Fatalf("no release at majority: %v", kinds(evs))
	}
	var pass []Event
	for _, w := range benchFrames(5, 80)[3:] {
		pass = append(pass, ingest(e, now, 0, w, nil)...)
	}
	if !hasKind(pass, EventCleanup) {
		t.Fatalf("second overflow produced %v, want a pass", kinds(pass))
	}
	for _, ev := range pass {
		if ev.Kind == EventRelease {
			t.Fatal("cleanup re-released an already released entry")
		}
	}
	st := e.Stats()
	if st.Released != 1 {
		t.Fatalf("released = %d, want 1", st.Released)
	}
	// Only minority entries are suppressions; the released one is not.
	if st.Suppressed != 3 {
		t.Fatalf("suppressed = %d, want the three minority entries retired", st.Suppressed)
	}
}

// TestEngineCleanupUnboundedCache: CacheCapacity zero means unbounded —
// cleanup never fires regardless of size.
func TestEngineCleanupUnboundedCache(t *testing.T) {
	e := NewEngine(Config{K: 3, HoldTimeout: time.Minute})
	frames := benchFrames(128, 64)
	for i, w := range frames {
		if evs := ingest(e, time.Duration(i)*time.Microsecond, 0, w, nil); len(evs) != 0 {
			t.Fatalf("unbounded cache produced %v", kinds(evs))
		}
	}
	if e.Stats().CleanupPasses != 0 {
		t.Fatal("cleanup pass on unbounded cache")
	}
	if e.Size() != 128 {
		t.Fatalf("size = %d, want 128", e.Size())
	}
}
