package packet

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
// packets they own: each pool belongs to a node on one scheduler, and a
// pooled packet never leaves that scheduler's goroutine (netem.Link hands
// a clone across a partition boundary).
type Pool struct {
	free *Packet
}

// Get returns a packet owned by this pool, with one hold. Its fields are
// zero; Payload has length 0 and whatever capacity the recycled frame
// carried.
func (pl *Pool) Get() *Packet {
	p := pl.free
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
	*p = Packet{Payload: p.Payload[:0], pool: pl, hdr: p.hdr, next: pl.free}
	pl.free = p
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

// Unpooled returns a packet that no pool owns, with p's contents: p
// itself if no pool owns it, otherwise a Clone, and the caller's hold on
// p ends. A link hands this across a partition boundary, so a pooled
// packet never leaves its pool's goroutine.
func Unpooled(p *Packet) *Packet {
	if p.pool == nil {
		return p
	}
	q := p.Clone()
	Done(p)
	return q
}
