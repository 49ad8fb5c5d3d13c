package traffic

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// refFillPattern and refPatternOK are the byte loops fillPattern and
// patternOK replaced, kept as the reference the word-wide kernels must
// reproduce byte for byte.
func refFillPattern(b []byte, seq uint32) {
	for i := range b {
		b[i] = byte(seq) ^ byte(i*131>>3) ^ byte(i)
	}
}

func refPatternOK(b []byte, seq uint32) bool {
	for i := range b {
		if b[i] != byte(seq)^byte(i*131>>3)^byte(i) {
			return false
		}
	}
	return true
}

// TestPatternMatchesReference: every length across two wraps of the
// 2,048-byte period, a spread of sequence numbers.
func TestPatternMatchesReference(t *testing.T) {
	seqs := []uint32{0, 1, 0x7f, 0x80, 0xff, 0x100, 0x1234, 0xdeadbeef, math.MaxUint32}
	// One byte past each end must stay untouched.
	got := make([]byte, 4202)
	want := make([]byte, 4200)
	for n := 0; n <= 4200; n++ {
		for _, seq := range seqs {
			got[0], got[n+1] = 0xa5, 0x5a
			fillPattern(got[1:n+1], seq)
			refFillPattern(want[:n], seq)
			if !bytes.Equal(got[1:n+1], want[:n]) {
				t.Fatalf("len %d seq %#x: fillPattern differs from the byte loop", n, seq)
			}
			if got[0] != 0xa5 || got[n+1] != 0x5a {
				t.Fatalf("len %d seq %#x: fillPattern wrote outside its slice", n, seq)
			}
			if !patternOK(want[:n], seq) {
				t.Fatalf("len %d seq %#x: patternOK rejects the reference pattern", n, seq)
			}
			if n > 0 && patternOK(want[:n], seq+1) != refPatternOK(want[:n], seq+1) {
				t.Fatalf("len %d seq %#x: patternOK and the byte loop disagree on seq+1", n, seq)
			}
		}
	}
}

// TestPatternPeriod pins the fact the table rests on.
func TestPatternPeriod(t *testing.T) {
	b := make([]byte, 3*2048)
	refFillPattern(b, 0)
	if !bytes.Equal(b[:2048], b[2048:4096]) || !bytes.Equal(b[:2048], b[4096:]) {
		t.Fatal("the pattern does not repeat every 2,048 bytes")
	}
	for p := 1; p < 2048; p++ {
		if bytes.Equal(b[:2048], b[p:p+2048]) {
			t.Fatalf("the pattern also repeats every %d bytes", p)
		}
	}
}

// TestPatternOKRejectsOneFlippedBit at every position class: first word,
// word boundaries, the tail bytes, and both sides of the period's wrap.
func TestPatternOKRejectsOneFlippedBit(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 1458, 2047, 2048, 2049, 2055, 4099} {
		positions := []int{0, 1, 6, 7, 8, 9, 15, 16, 727, 728, 1455, 1456, 1457,
			2039, 2040, 2046, 2047, 2048, 2049, 2055, 2056, 4095, 4096, 4097, n - 2, n - 1}
		b := make([]byte, n)
		for _, seq := range []uint32{0, 0xa7} {
			fillPattern(b, seq)
			for _, pos := range positions {
				if pos < 0 || pos >= n {
					continue
				}
				for bit := 0; bit < 8; bit++ {
					b[pos] ^= 1 << bit
					if patternOK(b, seq) {
						t.Fatalf("len %d seq %#x: bit %d of byte %d flipped and patternOK accepted", n, seq, bit, pos)
					}
					b[pos] ^= 1 << bit
				}
			}
			if !patternOK(b, seq) {
				t.Fatalf("len %d seq %#x: restored pattern rejected", n, seq)
			}
		}
	}
}

// TestUDPSourceNonFiniteRate: an infinite (or NaN) rate, at construction
// or mid-run, is no rate, and a finite one set afterwards takes over —
// before, +Inf made the datagram carry infinite for good.
func TestUDPSourceNonFiniteRate(t *testing.T) {
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		sched, _, h1, h2 := pipe(t, fastLink, HostConfig{})
		sink := NewUDPSink(h2, 5001)
		src := NewUDPSource(h1, 4001, h2.Endpoint(5001), UDPSourceConfig{Rate: bad, PayloadSize: 1250})
		if src.Rate() != 0 {
			t.Fatalf("NewUDPSource kept rate %v", src.Rate())
		}
		src.Start()
		sched.RunUntil(50 * time.Millisecond)
		src.SetRate(bad)
		if src.Rate() != 0 {
			t.Fatalf("SetRate kept rate %v", src.Rate())
		}
		sched.RunUntil(100 * time.Millisecond)
		if src.Sent != 0 {
			t.Fatalf("rate %v: sent %d datagrams, want none", bad, src.Sent)
		}
		src.SetRate(10e6)
		sched.RunUntil(1100 * time.Millisecond)
		src.Stop()
		sched.RunFor(10 * time.Millisecond)
		// 10 Mbit/s of 1250 B payloads = 1000 datagrams/s.
		if src.Sent < 990 || src.Sent > 1010 {
			t.Fatalf("after rate %v: sent %d datagrams in 1 s at 10 Mbit/s, want ≈1000", bad, src.Sent)
		}
		if st := sink.Stats(); st.Unique != src.Sent || st.Corrupted != 0 {
			t.Fatalf("after rate %v: sink saw %d of %d, %d corrupted", bad, st.Unique, src.Sent, st.Corrupted)
		}
	}
}

var patternSink bool

// BenchmarkPattern prices the payload pattern at the benchmark's datagram
// (1,470 B payload less the 12 B sequencing header).
func BenchmarkPattern(b *testing.B) {
	buf := make([]byte, 1458)
	b.Run("fill/1458", func(b *testing.B) {
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fillPattern(buf, uint32(i))
		}
	})
	b.Run("check/1458", func(b *testing.B) {
		fillPattern(buf, 7)
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			patternSink = patternOK(buf, 7)
		}
		if !patternSink {
			b.Fatal("pattern rejected")
		}
	})
}
