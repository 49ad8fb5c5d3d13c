package core

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"netco/internal/packet"
)

func frame(n int) (wire []byte, pkt *packet.Packet) {
	src := packet.Endpoint{MAC: packet.HostMAC(1), IP: packet.HostIP(1), Port: 1000}
	dst := packet.Endpoint{MAC: packet.HostMAC(2), IP: packet.HostIP(2), Port: 2000}
	pkt = packet.NewUDP(src, dst, []byte{byte(n), byte(n >> 8), byte(n >> 16)})
	return pkt.Marshal(), pkt
}

func kinds(events []Event) []EventKind {
	out := make([]EventKind, len(events))
	for i, ev := range events {
		out[i] = ev.Kind
	}
	return out
}

func hasKind(events []Event, k EventKind) bool {
	for _, ev := range events {
		if ev.Kind == k {
			return true
		}
	}
	return false
}

// collect runs one engine call and returns the events it reported, in
// order — the one place tests read the OnEvent hook. Pkt and Wire still
// point into engine storage.
func collect(e *Engine, call func()) []Event {
	var got []Event
	prev := e.OnEvent
	e.OnEvent = func(ev Event) { got = append(got, ev) }
	defer func() { e.OnEvent = prev }()
	call()
	return got
}

func ingest(e *Engine, now time.Duration, port int, wire []byte, pkt *packet.Packet) []Event {
	return collect(e, func() { e.Ingest(now, port, wire, pkt) })
}

func expire(e *Engine, now time.Duration) []Event {
	return collect(e, func() { e.Expire(now) })
}

func TestEngineMajorityReleaseK3(t *testing.T) {
	e := NewEngine(Config{K: 3})
	wire, pkt := frame(1)

	if evs := ingest(e, 0, 0, wire, pkt); len(evs) != 0 {
		t.Fatalf("first copy produced %v, want nothing", kinds(evs))
	}
	evs := ingest(e, time.Microsecond, 1, wire, pkt)
	if !hasKind(evs, EventRelease) {
		t.Fatalf("second copy produced %v, want release", kinds(evs))
	}
	// Third copy is a late duplicate: ignored, not re-released.
	if evs := ingest(e, 2*time.Microsecond, 2, wire, pkt); hasKind(evs, EventRelease) {
		t.Fatal("third copy re-released the packet")
	}
	s := e.Stats()
	if s.Released != 1 {
		t.Errorf("Released = %d, want 1", s.Released)
	}
	if s.LateCopies != 1 {
		t.Errorf("LateCopies = %d, want 1", s.LateCopies)
	}
}

func TestEngineMajorityReleaseK5(t *testing.T) {
	e := NewEngine(Config{K: 5})
	wire, pkt := frame(2)
	for port := 0; port < 2; port++ {
		if evs := ingest(e, 0, port, wire, pkt); hasKind(evs, EventRelease) {
			t.Fatalf("released after %d copies; majority of 5 needs 3", port+1)
		}
	}
	if evs := ingest(e, 0, 2, wire, pkt); !hasKind(evs, EventRelease) {
		t.Fatal("not released after 3 of 5 copies")
	}
}

func TestEngineSinglePortNeverReleases(t *testing.T) {
	// §IV case 1: a packet received on one ingress port only (e.g. a
	// crafted or rewritten packet) must never be forwarded.
	e := NewEngine(Config{K: 3, HoldTimeout: 10 * time.Millisecond, DoSThreshold: 1000})
	wire, pkt := frame(3)
	for i := 0; i < 50; i++ {
		if evs := ingest(e, time.Duration(i)*time.Microsecond, 1, wire, pkt); hasKind(evs, EventRelease) {
			t.Fatal("packet from a single port was released")
		}
	}
	evs := expire(e, time.Second)
	if !hasKind(evs, EventSuppressed) {
		t.Fatalf("expiry produced %v, want suppression", kinds(evs))
	}
	if e.Stats().Suppressed != 1 {
		t.Errorf("Suppressed = %d, want 1", e.Stats().Suppressed)
	}
	if e.Size() != 0 {
		t.Errorf("Size = %d after expiry, want 0", e.Size())
	}
}

func TestEngineDistinguishesDifferentPackets(t *testing.T) {
	e := NewEngine(Config{K: 3})
	w1, p1 := frame(10)
	w2, p2 := frame(20)
	e.Ingest(0, 0, w1, p1)
	// A *different* packet from another port must not count toward the
	// first packet's majority.
	if evs := ingest(e, 0, 1, w2, p2); hasKind(evs, EventRelease) {
		t.Fatal("different packets combined into a majority")
	}
	if e.Size() != 2 {
		t.Fatalf("Size = %d, want 2 distinct entries", e.Size())
	}
}

func TestEngineBitExactCatchesPayloadTamper(t *testing.T) {
	e := NewEngine(Config{K: 3, Mode: ModeBitExact, HoldTimeout: time.Millisecond})
	_, pkt := frame(4)
	tampered := pkt.Clone()
	tampered.Payload[0] ^= 0xff

	e.Ingest(0, 0, pkt.Marshal(), pkt)
	if evs := ingest(e, 0, 1, tampered.Marshal(), tampered); hasKind(evs, EventRelease) {
		t.Fatal("tampered copy matched the original bit-exactly")
	}
	// The honest third copy still completes the majority.
	if evs := ingest(e, 0, 2, pkt.Marshal(), pkt); !hasKind(evs, EventRelease) {
		t.Fatal("two honest copies did not release")
	}
}

func TestEngineHeaderModeBlindToPayload(t *testing.T) {
	e := NewEngine(Config{K: 3, Mode: ModeHeader})
	_, pkt := frame(5)
	tampered := pkt.Clone()
	tampered.Payload[0] ^= 0xff

	e.Ingest(0, 0, pkt.Marshal(), pkt)
	// Header mode deliberately accepts the tampered payload — the
	// documented trade-off of the cheaper mode.
	if evs := ingest(e, 0, 1, tampered.Marshal(), tampered); !hasKind(evs, EventRelease) {
		t.Fatal("header mode failed to match same-header copies")
	}
}

func TestEngineHeaderModeCatchesVLANRewrite(t *testing.T) {
	e := NewEngine(Config{K: 3, Mode: ModeHeader})
	_, pkt := frame(6)
	rewritten := pkt.Clone()
	rewritten.Eth.VLAN = &packet.VLANTag{VID: 666} // isolation-breaking rewrite (§II)

	e.Ingest(0, 0, pkt.Marshal(), pkt)
	if evs := ingest(e, 0, 1, rewritten.Marshal(), rewritten); hasKind(evs, EventRelease) {
		t.Fatal("header mode missed a VLAN rewrite")
	}
}

func TestEngineHashedMode(t *testing.T) {
	e := NewEngine(Config{K: 3, Mode: ModeHashed})
	wire, pkt := frame(7)
	e.Ingest(0, 0, wire, pkt)
	if evs := ingest(e, 0, 1, wire, pkt); !hasKind(evs, EventRelease) {
		t.Fatal("hashed mode did not release identical copies")
	}
	tampered := pkt.Clone()
	tampered.Payload[0] ^= 1
	e2 := NewEngine(Config{K: 3, Mode: ModeHashed})
	e2.Ingest(0, 0, wire, pkt)
	if evs := ingest(e2, 0, 1, tampered.Marshal(), tampered); hasKind(evs, EventRelease) {
		t.Fatal("hashed mode matched a tampered copy")
	}
}

func TestEngineDoSDetection(t *testing.T) {
	// §IV case 2: the same packet arriving repeatedly on one port.
	e := NewEngine(Config{K: 3, DoSThreshold: 3})
	wire, pkt := frame(8)
	e.Ingest(0, 2, wire, pkt)
	e.Ingest(0, 2, wire, pkt)
	evs := ingest(e, 0, 2, wire, pkt)
	if !hasKind(evs, EventDoS) {
		t.Fatalf("third same-port copy produced %v, want DoS", kinds(evs))
	}
	// The flag fires once per entry, not per extra copy.
	if evs := ingest(e, 0, 2, wire, pkt); hasKind(evs, EventDoS) {
		t.Fatal("DoS flagged twice for the same entry")
	}
	if e.Stats().DoSFlagged != 1 {
		t.Errorf("DoSFlagged = %d, want 1", e.Stats().DoSFlagged)
	}
	// And the packet still never released.
	if e.Stats().Released != 0 {
		t.Error("DoS packet was released")
	}
}

func TestEnginePortSilenceAlarm(t *testing.T) {
	// §IV case 3: consecutive packets missing from one port.
	e := NewEngine(Config{K: 3, SilenceThreshold: 4, HoldTimeout: time.Millisecond})
	var silent []Event
	now := time.Duration(0)
	for i := 0; i < 6; i++ {
		wire, pkt := frame(100 + i)
		e.Ingest(now, 0, wire, pkt)
		e.Ingest(now, 1, wire, pkt) // port 2 never delivers
		now += 10 * time.Millisecond
		for _, ev := range expire(e, now) {
			if ev.Kind == EventPortSilent {
				silent = append(silent, ev)
			}
		}
	}
	if len(silent) != 1 {
		t.Fatalf("port-silent alarms = %d, want exactly 1", len(silent))
	}
	if silent[0].Port != 2 {
		t.Errorf("alarm port = %d, want 2", silent[0].Port)
	}
}

func TestEnginePortSilenceResetsOnDelivery(t *testing.T) {
	e := NewEngine(Config{K: 3, SilenceThreshold: 4, HoldTimeout: time.Millisecond})
	now := time.Duration(0)
	alarms := 0
	for i := 0; i < 20; i++ {
		wire, pkt := frame(200 + i)
		e.Ingest(now, 0, wire, pkt)
		e.Ingest(now, 1, wire, pkt)
		if i%3 == 2 { // port 2 delivers every third packet
			e.Ingest(now, 2, wire, pkt)
		}
		now += 10 * time.Millisecond
		for _, ev := range expire(e, now) {
			if ev.Kind == EventPortSilent {
				alarms++
			}
		}
	}
	if alarms != 0 {
		t.Fatalf("alarms = %d for an intermittently slow but live port, want 0", alarms)
	}
}

func TestEngineDetectOnlyMode(t *testing.T) {
	// §III: "for detecting misbehavior, two are enough".
	e := NewEngine(Config{K: 2, DetectOnly: true, HoldTimeout: time.Millisecond})
	wire, pkt := frame(9)

	evs := ingest(e, 0, 0, wire, pkt)
	if !hasKind(evs, EventRelease) {
		t.Fatal("detect-only mode did not release the first copy immediately")
	}
	// Second copy arrives: unanimity, no detection on retire.
	e.Ingest(0, 1, wire, pkt)
	if evs := expire(e, time.Second); hasKind(evs, EventDetection) {
		t.Fatal("detection fired despite unanimity")
	}

	// Next packet: second router drops it → detection on retire.
	wire2, pkt2 := frame(11)
	e.Ingest(time.Second, 0, wire2, pkt2)
	if evs := expire(e, 2*time.Second); !hasKind(evs, EventDetection) {
		t.Fatal("dropped copy went undetected")
	}
	if e.Stats().Detections != 1 {
		t.Errorf("Detections = %d, want 1", e.Stats().Detections)
	}
}

func TestEngineCleanup(t *testing.T) {
	e := NewEngine(Config{K: 3, CacheCapacity: 100, HoldTimeout: time.Hour})
	now := time.Duration(0)
	for i := 0; i < 100; i++ {
		wire, pkt := frame(1000 + i)
		if evs := ingest(e, now, 0, wire, pkt); len(evs) != 0 {
			t.Fatalf("copy %d of 100 produced %v at or under capacity", i+1, kinds(evs))
		}
		now += time.Microsecond
	}
	wire, pkt := frame(1100)
	events := ingest(e, now, 0, wire, pkt)
	if len(events) == 0 || events[0].Kind != EventCleanup {
		t.Fatalf("copy 101 of 100 produced %v, want a cleanup pass", kinds(events))
	}
	scanned := events[0].Copies
	if scanned == 0 {
		t.Fatal("cleanup scanned nothing")
	}
	if e.Size() > 50 {
		t.Fatalf("Size = %d after cleanup, want <= capacity/2", e.Size())
	}
	// The evicted unique-port entries count as suppressed.
	suppressed := 0
	for _, ev := range events[1:] {
		if ev.Kind == EventSuppressed {
			suppressed++
		}
	}
	if suppressed != scanned {
		t.Errorf("suppressed %d of %d scanned", suppressed, scanned)
	}
	if e.Stats().CleanupPasses != 1 {
		t.Errorf("CleanupPasses = %d, want 1", e.Stats().CleanupPasses)
	}
}

func TestEngineCleanupNoopUnderCapacity(t *testing.T) {
	e := NewEngine(Config{K: 3, CacheCapacity: 100})
	wire, pkt := frame(1)
	if evs := ingest(e, 0, 0, wire, pkt); len(evs) != 0 || e.Stats().CleanupPasses != 0 {
		t.Fatalf("cleanup ran while under capacity: %v", kinds(evs))
	}
}

// TestEngineEventOrder pins the order of events inside one engine call —
// the order a lockstep reference model has to match.
func TestEngineEventOrder(t *testing.T) {
	eq := func(t *testing.T, got []Event, want ...EventKind) {
		t.Helper()
		if g := kinds(got); !slices.Equal(g, want) {
			t.Fatalf("events %v, want %v", g, want)
		}
	}
	t.Run("cleanup before its retirements", func(t *testing.T) {
		e := NewEngine(Config{K: 3, CacheCapacity: 4, HoldTimeout: time.Hour})
		for i := 0; i < 4; i++ {
			wire, pkt := frame(10 + i)
			e.Ingest(0, 0, wire, pkt)
		}
		before := e.Stats().CleanupScanned
		wire, pkt := frame(20)
		evs := ingest(e, 0, 0, wire, pkt)
		const scanned = 5 - 4/2
		eq(t, evs, EventCleanup, EventSuppressed, EventSuppressed, EventSuppressed)
		if evs[0].Copies != scanned {
			t.Fatalf("Copies = %d, want %d", evs[0].Copies, scanned)
		}
		if got := e.Stats().CleanupScanned - before; got != scanned {
			t.Fatalf("CleanupScanned grew by %d, announced %d", got, scanned)
		}
	})
	t.Run("dos, release, cleanup, retirements in one call", func(t *testing.T) {
		// Detect-only, so the copy that overflows the cache also releases
		// (and, at threshold 1, is a DoS); the pass then retires two
		// released entries port 1 never saw.
		e := NewEngine(Config{K: 2, DetectOnly: true, DoSThreshold: 1, CacheCapacity: 2, SilenceThreshold: 2, HoldTimeout: time.Hour})
		for i := 0; i < 2; i++ {
			wire, pkt := frame(40 + i)
			eq(t, ingest(e, 0, 0, wire, pkt), EventDoS, EventRelease)
		}
		wire, pkt := frame(42)
		evs := ingest(e, 0, 0, wire, pkt)
		eq(t, evs, EventDoS, EventRelease, EventCleanup, EventDetection, EventDetection, EventPortSilent)
		if evs[2].Copies != 2 || evs[5].Port != 1 {
			t.Fatalf("cleanup Copies = %d, silent port = %d; want 2, 1", evs[2].Copies, evs[5].Port)
		}
	})
	t.Run("outcome before port-silent", func(t *testing.T) {
		e := NewEngine(Config{K: 2, DetectOnly: true, SilenceThreshold: 1, HoldTimeout: time.Millisecond})
		wire, pkt := frame(30)
		e.Ingest(0, 0, wire, pkt)
		eq(t, expire(e, time.Second), EventDetection, EventPortSilent)
	})
}

func TestEngineUnknownPortSuppressed(t *testing.T) {
	e := NewEngine(Config{K: 3})
	wire, pkt := frame(1)
	evs := ingest(e, 0, 7, wire, pkt)
	if !hasKind(evs, EventSuppressed) {
		t.Fatalf("unknown port produced %v, want suppression", kinds(evs))
	}
}

func TestEngineExpireKeepsYoungEntries(t *testing.T) {
	e := NewEngine(Config{K: 3, HoldTimeout: 10 * time.Millisecond})
	w1, p1 := frame(1)
	w2, p2 := frame(2)
	e.Ingest(0, 0, w1, p1)
	e.Ingest(9*time.Millisecond, 0, w2, p2)
	evs := expire(e, 11*time.Millisecond)
	if len(evs) != 1 {
		t.Fatalf("expired %d entries, want 1 (second is younger than HoldTimeout)", len(evs))
	}
	if e.Size() != 1 {
		t.Fatalf("Size = %d, want 1", e.Size())
	}
}

// Property (safety): for any arrival pattern on at most ⌊K/2⌋ distinct
// ports, the packet is never released.
func TestMajoritySafetyProperty(t *testing.T) {
	f := func(k uint8, arrivals []uint8) bool {
		kk := int(k%2)*2 + 3 // K ∈ {3, 5}
		e := NewEngine(Config{K: kk, DoSThreshold: 1 << 20})
		minority := kk / 2
		wire, pkt := frame(42)
		for i, a := range arrivals {
			port := int(a) % minority // confined to ⌊K/2⌋ distinct ports
			evs := ingest(e, time.Duration(i), port, wire, pkt)
			if hasKind(evs, EventRelease) {
				return false
			}
		}
		// Expiry must suppress, never release.
		for _, ev := range expire(e, time.Hour) {
			if ev.Kind == EventRelease {
				return false
			}
		}
		return e.Stats().Released == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property (liveness + exactly-once): if copies arrive on more than ⌊K/2⌋
// distinct ports within the hold window, the packet is released exactly
// once, regardless of arrival order and interleaved duplicates.
func TestMajorityLivenessProperty(t *testing.T) {
	f := func(k uint8, order []uint8, dups []uint8) bool {
		kk := int(k%2)*2 + 3
		e := NewEngine(Config{K: kk, DoSThreshold: 1 << 20})
		wire, pkt := frame(43)
		// Build an arrival sequence covering all K ports plus arbitrary
		// duplicates, in an order derived from `order`.
		seq := make([]int, 0, kk+len(dups))
		for p := 0; p < kk; p++ {
			seq = append(seq, p)
		}
		for _, d := range dups {
			seq = append(seq, int(d)%kk)
		}
		for i := range seq {
			j := 0
			if len(order) > 0 {
				j = int(order[i%len(order)]) % (i + 1)
			}
			seq[i], seq[j] = seq[j], seq[i]
		}
		releases := 0
		for i, port := range seq {
			for _, ev := range ingest(e, time.Duration(i), port, wire, pkt) {
				if ev.Kind == EventRelease {
					releases++
				}
			}
		}
		return releases == 1 && e.Stats().Released == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: entries are always retired exactly once — total ingested
// entries equals released-and-retired plus suppressed after a full expiry.
func TestRetirementAccountingProperty(t *testing.T) {
	f := func(pattern []uint16) bool {
		e := NewEngine(Config{K: 3, HoldTimeout: time.Millisecond, DoSThreshold: 1 << 20})
		distinct := make(map[int]bool)
		for i, v := range pattern {
			wire, pkt := frame(int(v % 37)) // collisions on purpose
			port := int(v) % 3
			e.Ingest(time.Duration(i)*time.Microsecond, port, wire, pkt)
			distinct[int(v%37)] = distinct[int(v%37)] || false
		}
		e.Expire(time.Hour)
		return e.Size() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineIngestRelease(b *testing.B) {
	e := NewEngine(Config{K: 3, HoldTimeout: time.Millisecond})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire, pkt := frame(i)
		now := time.Duration(i) * time.Microsecond
		e.Ingest(now, 0, wire, pkt)
		e.Ingest(now, 1, wire, pkt)
		e.Ingest(now, 2, wire, pkt)
		if i%1024 == 0 {
			e.Expire(now)
		}
	}
}

// TestCompareModeDetectionMatrix pins down which compare mode catches
// which §II mutation — the security/performance trade-off behind §III's
// "compared bit-by-bit, or just based on the header, or hashing".
func TestCompareModeDetectionMatrix(t *testing.T) {
	type mutation struct {
		name  string
		apply func(*packet.Packet)
	}
	mutations := []mutation{
		{"payload-flip", func(p *packet.Packet) { p.Payload[0] ^= 0xff }},
		{"vlan-add", func(p *packet.Packet) { p.Eth.VLAN = &packet.VLANTag{VID: 666} }},
		{"tos-rewrite", func(p *packet.Packet) { p.IP.TOS = 0xfc }},
		{"dst-mac-rewrite", func(p *packet.Packet) { p.Eth.Dst = packet.HostMAC(9) }},
		{"udp-port-rewrite", func(p *packet.Packet) { p.UDP.DstPort = 9999 }},
	}
	// caught[mode][mutation]: must the tampered copy fail to match?
	caught := map[Mode]map[string]bool{
		ModeBitExact: {"payload-flip": true, "vlan-add": true, "tos-rewrite": true, "dst-mac-rewrite": true, "udp-port-rewrite": true},
		ModeHashed:   {"payload-flip": true, "vlan-add": true, "tos-rewrite": true, "dst-mac-rewrite": true, "udp-port-rewrite": true},
		ModeHeader:   {"payload-flip": false, "vlan-add": true, "tos-rewrite": true, "dst-mac-rewrite": true, "udp-port-rewrite": true},
	}
	for mode, expectations := range caught {
		for _, mut := range mutations {
			e := NewEngine(Config{K: 3, Mode: mode})
			_, honest := frame(500)
			tampered := honest.Clone()
			mut.apply(tampered)

			e.Ingest(0, 0, honest.Marshal(), honest)
			evs := ingest(e, 0, 1, tampered.Marshal(), tampered)
			released := hasKind(evs, EventRelease)
			if expectations[mut.name] && released {
				t.Errorf("mode %d failed to catch %s", mode, mut.name)
			}
			if !expectations[mut.name] && !released {
				t.Errorf("mode %d unexpectedly caught %s", mode, mut.name)
			}
		}
	}
}

func TestEngineSeenCounterSaturates(t *testing.T) {
	// More than 255 copies on one port must not wrap the counter back
	// to zero (which would reset DoS accounting).
	e := NewEngine(Config{K: 3, DoSThreshold: 300, HoldTimeout: time.Hour})
	wire, pkt := frame(1)
	for i := 0; i < 400; i++ {
		for _, ev := range ingest(e, time.Duration(i), 0, wire, pkt) {
			if ev.Kind == EventRelease {
				t.Fatal("single-port copies released")
			}
		}
	}
	if e.Stats().Released != 0 {
		t.Fatal("released despite single port")
	}
}
