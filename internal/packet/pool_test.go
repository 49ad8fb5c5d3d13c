package packet

import (
	"bytes"
	"testing"
)

// recycled reports whether p sits on pl's free list.
func recycled(pl *Pool, p *Packet) bool {
	for q := pl.free; q != nil; q = q.next {
		if q == p {
			return true
		}
	}
	return false
}

// TestShareThenDoneRecyclesOnce: Share(p, n) then n × Done returns the
// packet to its pool on the last Done and not before, and a hold ended
// once more is caught instead of recycling the packet twice.
func TestShareThenDoneRecyclesOnce(t *testing.T) {
	var pl Pool
	p := pl.Get()
	Share(p, 3)
	for i := 0; i < 2; i++ {
		Done(p)
		if recycled(&pl, p) {
			t.Fatalf("recycled after %d of 3 holds ended", i+1)
		}
	}
	Done(p)
	if !recycled(&pl, p) {
		t.Fatal("not recycled after the last hold ended")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a hold ended on a recycled packet went unnoticed")
			}
		}()
		Done(p)
	}()
	if q := pl.Get(); q != p || q.holds != 1 || pl.free != nil {
		t.Fatalf("Get after one recycle: same packet %v, holds %d, free list empty %v", q == p, q.holds, pl.free == nil)
	}
	// Share(p, 0) ends the hold like Done.
	Share(p, 0)
	if !recycled(&pl, p) {
		t.Fatal("Share(p, 0) did not end the hold")
	}
}

// TestDetachedAndUnpooledNeverRecycled: holds on a packet no pool owns —
// built by hand, cloned, parsed, or detached while pooled — end without
// effect, however many there are.
func TestDetachedAndUnpooledNeverRecycled(t *testing.T) {
	var pl Pool
	src, dst := testEndpoints()
	detached := pl.UDP(src, dst, 64)
	Share(detached, 2)
	Detach(detached)
	parsed, err := Unmarshal(detached.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Packet{detached, NewUDP(src, dst, []byte("x")), detached.Clone(), parsed} {
		Share(p, 3)
		for i := 0; i < 5; i++ {
			Done(p)
		}
	}
	if pl.free != nil {
		t.Fatal("a packet no pool owns was recycled")
	}

	// Copy hands back a packet of its own pool with the original's
	// contents, ends the caller's hold on the original, and reuses a
	// recycled packet's storage.
	var own Pool
	p := pl.UDP(src, dst, 64)
	p.Payload[0], p.Meta.UID = 0xab, 9
	want := p.Marshal()
	q := own.Copy(p)
	if q == p || q.pool != &own || q.holds != 1 || !recycled(&pl, p) {
		t.Fatalf("Copy(pooled): copy %v, pooled by the copier %v, holds %d, original recycled %v",
			q != p, q.pool == &own, q.holds, recycled(&pl, p))
	}
	if !bytes.Equal(q.Marshal(), want) || q.Meta.UID != 9 || q.IP == p.IP || &q.Payload[0] == &p.Payload[:1][0] {
		t.Fatal("Copy is not a deep copy of the original")
	}
	ip, payload := q.IP, &q.Payload[0]
	Done(q)
	if r := own.Copy(pl.UDP(dst, src, 64)); r != q || r.IP != ip || &r.Payload[0] != payload || r.IP.Src != dst.IP {
		t.Fatal("Copy into a warm pool did not reuse the recycled packet's storage")
	}
}

// TestRecycleKeepsStorage: a recycled packet comes back with its header
// storage and payload capacity, every field rebuilt, and a warm
// build-send-recycle cycle allocates nothing.
func TestRecycleKeepsStorage(t *testing.T) {
	var pl Pool
	src, dst := testEndpoints()
	p := pl.UDP(src, dst, 1470)
	p.Payload[0] = 0xff
	p.Meta.UID = 7
	ip, payload := p.IP, &p.Payload[0]
	Done(p)

	q := pl.TCP(dst, src, 1, 2, TCPAck, 100, 1460)
	if q != p || q.IP != ip || &q.Payload[0] != payload {
		t.Fatal("recycling dropped the header storage or the payload buffer")
	}
	if q.UDP != nil || q.Meta.UID != 0 || q.Payload[0] != 0 || q.IP.Src != dst.IP || q.TCP.Seq != 1 {
		t.Fatalf("recycled packet kept stale fields: %v", q)
	}
	if want := NewTCP(dst, src, 1, 2, TCPAck, 100, make([]byte, 1460)).Marshal(); !bytes.Equal(q.Marshal(), want) {
		t.Fatal("pooled segment marshals differently from NewTCP's")
	}
	Done(q)

	if got := testing.AllocsPerRun(100, func() {
		p := pl.UDP(src, dst, 1470)
		Share(p, 3)
		for i := 0; i < 3; i++ {
			Done(p)
		}
	}); got != 0 {
		t.Fatalf("warm pooled build and release allocated %.1f objects, want 0", got)
	}
}

// TestCrossingPoolHandoff: a crossing pool taken from on one goroutine
// and ended on another — a link between partitions — recycles what the
// other side ends instead of allocating, and every copy carries exactly
// the source's frame however the recycled packets were used before.
func TestCrossingPoolHandoff(t *testing.T) {
	const (
		frames   = 20000
		inFlight = 16
	)
	src, dst := testEndpoints()
	// frame builds the i-th source frame: UDP and TCP alternate, with
	// payloads of varying length filled with a per-frame byte.
	frame := func(pl *Pool, i int) *Packet {
		n := (i * 37) % 1500
		var p *Packet
		if i%2 == 0 {
			p = pl.UDP(src, dst, n)
		} else {
			p = pl.TCP(dst, src, uint32(i), 1, TCPAck, 100, n)
		}
		for j := range p.Payload {
			p.Payload[j] = byte(i)
		}
		p.Meta.UID = uint64(i)
		return p
	}

	crossing := Crossing()
	ch := make(chan *Packet, inFlight) // the buffer bounds the copies in flight
	distinct := make(map[*Packet]bool)
	go func() {
		var own Pool
		for i := 0; i < frames; i++ {
			q := crossing.Copy(frame(&own, i))
			distinct[q] = true
			ch <- q
		}
		close(ch)
	}()
	var ref Pool
	i := 0
	for q := range ch {
		want := frame(&ref, i)
		if q.Meta.UID != uint64(i) || !bytes.Equal(q.Marshal(), want.Marshal()) {
			t.Fatalf("copy %d differs from its source: %v, want %v", i, q, want)
		}
		Done(want)
		Done(q)
		i++
	}
	if i != frames {
		t.Fatalf("received %d of %d copies", i, frames)
	}
	// A copy is built only when every earlier one is in the channel, in
	// the receiver's hand, or back in the pool: at most inFlight + 2 ever
	// exist.
	if len(distinct) > inFlight+2 {
		t.Fatalf("%d distinct packets for %d in flight: the crossing pool does not recycle", len(distinct), inFlight)
	}
}
