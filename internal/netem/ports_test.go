package netem

import (
	"sync"
	"testing"
	"unsafe"

	"netco/internal/sim"
)

// TestPortsGrowConcurrentBind: after Grow, Bind calls on distinct ports
// of one table are plain writes to disjoint slice elements and never
// reallocate it, so they may run concurrently (the race detector
// enforces this in -race CI runs).
func TestPortsGrowConcurrentBind(t *testing.T) {
	const n = 16
	l := NewLink(sim.NewScheduler(), "", LinkConfig{})
	var ps Ports
	ps.Grow(n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ps.Bind(i, l, i%2)
		}(i)
	}
	wg.Wait()
	if ps.Count() != n {
		t.Fatalf("bound %d ports, want %d", ps.Count(), n)
	}
	for i := 0; i < n; i++ {
		if got, end := ps.ref(i).link, ps.ref(i).end; got != l || end != i%2 {
			t.Fatalf("port %d bound to link %v end %d", i, got, end)
		}
	}
}

// TestPortsBindAscendingBytes bounds what binding ports 0..63 one by one
// allocates. Growing the table to idx+1 on every Bind copied it 64 times
// (33 KB for the 1 KB it ends up holding, 606 MB across an arity-60 fat
// tree); doubling keeps the total under twice the final table, and the
// test allows four times. Bytes are summed from the table's capacity at
// each reallocation rather than read from runtime.MemStats, whose
// totals are process-wide and pick up other tests' goroutines.
func TestPortsBindAscendingBytes(t *testing.T) {
	const n = 64
	l := NewLink(sim.NewScheduler(), "", LinkConfig{})
	var ps Ports
	var bytes uintptr
	for i := 0; i < n; i++ {
		had := cap(ps.dense)
		ps.Bind(i, l, 0)
		if c := cap(ps.dense); c != had {
			bytes += uintptr(c) * unsafe.Sizeof(portRef{})
		}
	}
	if ps.Count() != n {
		t.Fatalf("bound %d ports, want %d", ps.Count(), n)
	}
	if limit := 4 * n * unsafe.Sizeof(portRef{}); bytes > limit {
		t.Fatalf("binding ports 0..%d in order allocated %d bytes, want <= %d", n-1, bytes, limit)
	}
}
