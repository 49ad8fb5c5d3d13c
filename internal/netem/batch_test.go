package netem

import (
	"sync"
	"testing"
	"time"
	"unsafe"

	"netco/internal/sim"
)

// TestReserveLinksSlotLayout pins the LinkBatch contract the parallel
// topology builders depend on: slot s carries id base+s whatever order
// the slots are wired in, and the network's creation-order link list is
// the slot order — so same-instant tie-break bands are a function of
// the slot layout alone.
func TestReserveLinksSlotLayout(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	const n = 6
	nodes := make([]*collector, 2*n)
	for i := range nodes {
		nodes[i] = newCollector(sched, "n"+string(rune('a'+i)))
		net.Add(nodes[i])
	}
	batch := net.ReserveLinks(n)
	if batch.Len() != n {
		t.Fatalf("Len = %d", batch.Len())
	}
	// Wire the slots in reverse — the layout must not care.
	links := make([]*Link, n)
	for s := n - 1; s >= 0; s-- {
		links[s] = batch.Connect(s, nodes[2*s], 0, nodes[2*s+1], 0, LinkConfig{Bandwidth: 1e9})
	}
	all := net.Links()
	if len(all) != n {
		t.Fatalf("network has %d links, want %d", len(all), n)
	}
	for s := 0; s < n; s++ {
		if all[s] != links[s] {
			t.Fatalf("slot %d not at creation-order position %d", s, s)
		}
		if links[s].Index() != s {
			t.Fatalf("slot %d Index = %d", s, links[s].Index())
		}
		if links[s].id != links[0].id+uint64(s) {
			t.Fatalf("slot %d id %d not consecutive from base %d", s, links[s].id, links[0].id)
		}
	}
	// Batch-wired links carry traffic like Connect-wired ones.
	if !nodes[0].ports.Send(0, testPacket(100)) {
		t.Fatal("send over batch link rejected")
	}
	sched.Run()
	if len(nodes[1].got) != 1 {
		t.Fatal("packet not delivered over batch link")
	}
}

func TestReserveLinksDoubleWirePanics(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	a, b := newCollector(sched, "a"), newCollector(sched, "b")
	net.Add(a)
	net.Add(b)
	batch := net.ReserveLinks(1)
	batch.Connect(0, a, 0, b, 0, LinkConfig{})
	defer func() {
		if recover() == nil {
			t.Fatal("double-wiring a batch slot did not panic")
		}
	}()
	batch.Connect(0, a, 1, b, 1, LinkConfig{})
}

// TestReserveLinksInterleavesWithConnect checks ids and creation order
// stay coherent when plain Connects surround a reserved batch — the
// hybrid builder wires the fabric from a batch and the host links from
// another after it.
func TestReserveLinksInterleavesWithConnect(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	nodes := make([]*collector, 8)
	for i := range nodes {
		nodes[i] = newCollector(sched, "m"+string(rune('a'+i)))
		net.Add(nodes[i])
	}
	before := net.Connect(nodes[0], 0, nodes[1], 0, LinkConfig{})
	batch := net.ReserveLinks(2)
	batch.Connect(1, nodes[4], 0, nodes[5], 0, LinkConfig{})
	batch.Connect(0, nodes[2], 0, nodes[3], 0, LinkConfig{})
	after := net.Connect(nodes[6], 0, nodes[7], 0, LinkConfig{})
	ids := []uint64{before.id, net.Links()[1].id, net.Links()[2].id, after.id}
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			t.Fatalf("ids not consecutive in creation order: %v", ids)
		}
	}
	if net.Links()[1].ends[0].recv != nodes[2] || net.Links()[2].ends[0].recv != nodes[4] {
		t.Fatal("batch slots out of creation-order positions")
	}
}

// TestPortsGrowConcurrentBind exercises the pattern wireParallel relies
// on: after Grow, Bind calls on distinct ports of one node are plain
// writes to disjoint slice elements and may run concurrently (the race
// detector enforces this in -race CI runs).
func TestPortsGrowConcurrentBind(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	hub := newCollector(sched, "hub")
	net.Add(hub)
	const n = 16
	peers := make([]*collector, n)
	for i := range peers {
		peers[i] = newCollector(sched, "p"+string(rune('a'+i)))
		net.Add(peers[i])
	}
	hub.ports.Grow(n)
	batch := net.ReserveLinks(n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			batch.Connect(i, hub, i, peers[i], 0, LinkConfig{Bandwidth: 1e9, Delay: time.Microsecond})
		}(i)
	}
	wg.Wait()
	if hub.ports.Count() != n {
		t.Fatalf("bound %d ports, want %d", hub.ports.Count(), n)
	}
	for i := 0; i < n; i++ {
		l, end := hub.ports.Ref(i)
		if l == nil || l.Index() != i || end != 0 {
			t.Fatalf("port %d bound to link %v end %d", i, l, end)
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

// TestPortsEachAscending pins Each's iteration contract (ascending port
// index) — the region builder's BFS discovery order, and with it the
// region digest, depends on it.
func TestPortsEachAscending(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	a := newCollector(sched, "a")
	net.Add(a)
	peers := []*collector{newCollector(sched, "x"), newCollector(sched, "y"), newCollector(sched, "z")}
	for _, p := range peers {
		net.Add(p)
	}
	// Bind out of order.
	net.Connect(a, 5, peers[0], 0, LinkConfig{})
	net.Connect(a, 1, peers[1], 0, LinkConfig{})
	net.Connect(a, 3, peers[2], 0, LinkConfig{})
	var idxs []int
	var seen []string
	a.ports.Each(func(idx int, l *Link, end int) {
		idxs = append(idxs, idx)
		peer, _ := l.Peer(end)
		seen = append(seen, peer.Name())
	})
	if len(idxs) != 3 || idxs[0] != 1 || idxs[1] != 3 || idxs[2] != 5 {
		t.Fatalf("Each order = %v, want ascending [1 3 5]", idxs)
	}
	if seen[0] != "y" || seen[1] != "z" || seen[2] != "x" {
		t.Fatalf("Each peers = %v", seen)
	}
}
