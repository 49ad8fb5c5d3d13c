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

	// Unpooled hands back a copy and ends the caller's hold on the
	// pooled original; a packet no pool owns comes back as itself.
	p := pl.UDP(src, dst, 64)
	q := Unpooled(p)
	if q == p || q.pool != nil || !recycled(&pl, p) {
		t.Fatalf("Unpooled(pooled): copy %v, unowned %v, original recycled %v", q != p, q.pool == nil, recycled(&pl, p))
	}
	if Unpooled(q) != q {
		t.Fatal("Unpooled copied a packet no pool owns")
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
