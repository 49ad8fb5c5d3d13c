package traffic

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"time"

	"netco/internal/netem"
	"netco/internal/packet"
)

// TestTCPRetransmitTimerLeavesNoResidue: the sender re-arms its RTO timer
// on every ACK. The scheduler's queue must stay the size of what is in
// flight — a small multiple of the window — instead of collecting one
// cancelled timer per ACK of the last RTO interval.
func TestTCPRetransmitTimerLeavesNoResidue(t *testing.T) {
	link := netem.LinkConfig{Bandwidth: 500e6, Delay: 15 * time.Microsecond, QueueLimit: 100}
	sched, _, h1, h2 := pipe(t, link, HostConfig{})
	flow := StartTCPFlow(h1, h2, 40000, 5001, TCPConfig{})
	const acks = 50_000
	maxPending := 0
	for flow.Stats().BytesAcked < acks*tcpMSS {
		sched.RunFor(time.Millisecond)
		if p := sched.Pending(); p > maxPending {
			maxPending = p
		}
		if sched.Now() > 10*time.Second {
			t.Fatalf("only %d bytes acknowledged after 10 s", flow.Stats().BytesAcked)
		}
	}
	flow.Stop()
	window := tcpReceiveWindow / tcpMSS
	if bound := 4 * window; maxPending > bound {
		t.Fatalf("scheduler queue reached %d nodes over %d ACKs; want <= %d (4 x the %d-segment window)",
			maxPending, acks, bound, window)
	}
	if st := flow.Stats(); st.Timeouts > 0 {
		t.Fatalf("clean link suffered %d RTO timeouts", st.Timeouts)
	}
}

// TestSeqSetMatchesMap checks the paged bitmap against the map it
// replaced on the two shapes that matter: a dense count-up where every
// number arrives three times, slightly shuffled (Dup3), and numbers
// scattered over the whole 32-bit range (forged or corrupted headers).
func TestSeqSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var dup3 []uint32
	for seq := uint32(0); seq < 20_000; seq++ {
		dup3 = append(dup3, seq, seq, seq)
	}
	for i := range dup3 { // local reordering, as three paths of unequal delay give
		j := i + rng.Intn(8)
		if j < len(dup3) {
			dup3[i], dup3[j] = dup3[j], dup3[i]
		}
	}
	sparse := []uint32{0, math.MaxUint32, 0, seqPageBits - 1, seqPageBits, math.MaxUint32, 1 << 31}
	for i := 0; i < 2000; i++ {
		sparse = append(sparse, rng.Uint32(), uint32(rng.Intn(3*seqPageBits)))
	}
	for name, seqs := range map[string][]uint32{"dup3": dup3, "sparse": sparse} {
		t.Run(name, func(t *testing.T) {
			var set seqSet
			ref := map[uint32]bool{}
			pages := map[uint32]bool{}
			for i, seq := range seqs {
				if got, want := set.add(seq), !ref[seq]; got != want {
					t.Fatalf("arrival %d, seq %d: add = %v, want %v", i, seq, got, want)
				}
				ref[seq] = true
				pages[seq/seqPageBits] = true
			}
			if len(set.pages) != len(pages) {
				t.Fatalf("%d pages allocated for numbers on %d pages", len(set.pages), len(pages))
			}
		})
	}
}

// TestUDPSinkForgedSequence: a far-away sequence number among ordinary
// ones is one more unique datagram (and makes what follows count as
// reordered); it costs the sink one bitmap page.
func TestUDPSinkForgedSequence(t *testing.T) {
	_, _, _, h2 := pipe(t, fastLink, HostConfig{})
	sink := NewUDPSink(h2, 5001)
	datagram := func(seq uint32) *packet.Packet {
		payload := make([]byte, 64)
		binary.BigEndian.PutUint32(payload[0:4], seq)
		fillPattern(payload[udpHeaderOverhead:], seq)
		return packet.NewUDP(packet.Endpoint{}, h2.Endpoint(5001), payload)
	}
	for _, seq := range []uint32{0, 1, 2, 4_000_000_000, 3, 3, 4, 4_000_000_000, 5} {
		sink.receive(datagram(seq))
	}
	st := sink.Stats()
	if st.Unique != 7 || st.Duplicates != 2 || st.Reordered != 3 || st.Corrupted != 0 {
		t.Fatalf("unique=%d duplicates=%d reordered=%d corrupted=%d, want 7, 2, 3, 0",
			st.Unique, st.Duplicates, st.Reordered, st.Corrupted)
	}
	if n := len(sink.seen.pages); n != 2 {
		t.Fatalf("sink holds %d bitmap pages, want 2", n)
	}
}
