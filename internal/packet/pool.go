package packet

import "sync/atomic"

// Pool recycles Packets together with their header storage and payload
// buffers. Each node that builds packets at line rate owns one: a host
// builds its datagrams and segments from it, an edge its compare-channel
// frames and the releases it parses, the compare its PacketOut frames.
//
// A pooled packet carries a count of holds. Get hands out one hold, the
// builder's; whoever holds a packet may read it, and passing the pointer
// on passes the hold with it:
//
//   - a node that sends one packet to n places first calls Share(p, n);
//   - a node that has finished reading a packet it will not pass on
//     calls Done(p);
//   - the last Done returns the packet to its pool, and Get hands it out
//     again, its headers and payload overwritten.
//
// So no node may read a packet after handing its hold on. A missed Done
// only leaves one packet to the garbage collector; a missed Share lets a
// packet be rebuilt while someone still reads it. Share, Done and Detach
// do nothing to a packet no pool owns — a hand-built test frame, a Clone,
// a parse by Unmarshal — so every node may call them on whatever it
// receives.
//
// Pools are not safe for concurrent use, and neither are the holds of the
// packets they own: each pool belongs to a node on one scheduler, and its
// packets never leave that scheduler's goroutine. The one exception is a
// crossing pool (Crossing), which a link between partitions copies its
// packets into: it is taken from on the sending domain's goroutine, and
// its packets are read, shared and ended on the receiving domain's.
type Pool struct {
	free *Packet
	// crossing marks a pool whose packets are ended on another goroutine
	// than the one that takes them: put pushes them onto shared, and Get
	// takes the whole of shared at once when free runs out. Taking all
	// (Swap) instead of popping one node is what keeps the stack free of
	// the ABA problem.
	crossing bool
	shared   atomic.Pointer[Packet]
}

// Crossing returns a pool for packets that cross to one other goroutine:
// Get and Copy may be called on one goroutine only, and the packets'
// holds are ended on one other. A link between partitions copies what it
// sends into one of its own (netem), so neither domain's pool is touched
// from the other's goroutine.
func Crossing() *Pool { return &Pool{crossing: true} }

// Get returns a packet owned by this pool, with one hold. Its fields are
// zero; Payload has length 0 and whatever capacity the recycled frame
// carried.
func (pl *Pool) Get() *Packet {
	p := pl.free
	if p == nil && pl.crossing {
		p = pl.shared.Swap(nil)
	}
	if p == nil {
		return &Packet{pool: pl, holds: 1}
	}
	pl.free, p.next = p.next, nil
	p.holds = 1
	return p
}

// put returns p to the free list, keeping its header storage and payload
// capacity.
func (pl *Pool) put(p *Packet) {
	*p = Packet{Payload: p.Payload[:0], pool: pl, hdr: p.hdr}
	if pl.crossing {
		for {
			p.next = pl.shared.Load()
			if pl.shared.CompareAndSwap(p.next, p) {
				return
			}
		}
	}
	p.next, pl.free = pl.free, p
}

// Copy returns a packet of this pool with p's headers, payload and Meta,
// and ends the caller's hold on p. The copy reuses a recycled packet's
// header storage and payload capacity.
func (pl *Pool) Copy(p *Packet) *Packet {
	q := pl.Get()
	q.Eth, q.Meta = p.Eth, p.Meta
	q.copyHeaders(p)
	q.Payload = append(q.Payload, p.Payload...)
	Done(p)
	return q
}

// UDP returns a pooled datagram from src to dst, built as NewUDP builds
// one, with an n-byte zeroed payload for the caller to fill.
func (pl *Pool) UDP(src, dst Endpoint, n int) *Packet {
	p := pl.Get()
	p.Payload = zeroed(p.Payload, n)
	p.setUDP(src, dst)
	return p
}

// TCP returns a pooled segment from src to dst carrying the given
// sequence and acknowledgement numbers, flags and window, TTL 64 and an
// n-byte zeroed payload.
func (pl *Pool) TCP(src, dst Endpoint, seq, ack uint32, flags uint8, window uint16, n int) *Packet {
	p := pl.Get()
	p.Payload = zeroed(p.Payload, n)
	p.setTCP(src, dst, seq, ack, flags, window)
	return p
}

// zeroed returns b resized to n zero bytes, reusing its capacity.
func zeroed(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// Share turns the caller's hold on p into n holds, one for each place it
// sends p; n = 0 ends the hold, like Done.
func Share(p *Packet, n int) {
	if p.pool == nil {
		return
	}
	if p.holds <= 0 || n < 0 {
		panic("packet: hold on a recycled packet")
	}
	p.holds += int32(n) - 1
	if p.holds == 0 {
		p.pool.put(p)
	}
}

// Done ends the caller's hold on p; the last one returns p to its pool.
func Done(p *Packet) { Share(p, 0) }

// Detach hands p to the garbage collector: no pool owns it from now on,
// and every remaining hold on it ends without effect. A link detaches a
// packet it delivers to a receiver that does not honour holds. Detach
// writes nothing to a packet no pool owns, which goroutines of other
// partitions may be reading.
func Detach(p *Packet) {
	if p.pool != nil {
		p.pool = nil
	}
}
