package packet

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// refChecksum is RFC 1071 as written: big-endian 16-bit words, one per
// step, an odd last byte padded with zero on the right.
func refChecksum(b []byte, initial uint32) uint16 {
	sum := uint64(initial)
	for ; len(b) >= 2; b = b[2:] {
		sum += uint64(b[0])<<8 | uint64(b[1])
	}
	if len(b) == 1 {
		sum += uint64(b[0]) << 8
	}
	for sum > 0xffff {
		sum = sum>>16 + sum&0xffff
	}
	return ^uint16(sum)
}

func TestChecksumMatchesReference(t *testing.T) {
	// RFC 1071 §3's worked example: the words sum to ddf2.
	if got := checksum([]byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}, 0); got != 0x220d {
		t.Fatalf("RFC 1071 example: checksum %#04x, want 0x220d", got)
	}
	rng := rand.New(rand.NewSource(20))
	check := func(b []byte, initial uint32) {
		t.Helper()
		if got, want := checksum(b, initial), refChecksum(b, initial); got != want {
			t.Fatalf("len %d initial %#x: checksum %#04x, reference %#04x", len(b), initial, got, want)
		}
	}
	buf := make([]byte, 65535)
	// Every length across the 32- and 8-byte steps and the padded tail, then random ones.
	for n := 0; n <= 3000; n++ {
		rng.Read(buf[:n])
		check(buf[:n], 0)
		check(buf[:n], rng.Uint32())
	}
	for i := 0; i < 20000; i++ {
		n := rng.Intn(3001)
		off := rng.Intn(8) // loads are not aligned in a frame either
		rng.Read(buf[off : off+n])
		check(buf[off:off+n], rng.Uint32()>>uint(rng.Intn(32)))
	}
	// The sums that exercise the end-around carry and both zeros.
	for _, fill := range []byte{0x00, 0xff} {
		for i := range buf {
			buf[i] = fill
		}
		for _, n := range []int{0, 1, 2, 3, 31, 32, 33, 1479, 1480, 65534, 65535} {
			for _, initial := range []uint32{0, 1, 0xffff, 0x10000, 0xffffffff} {
				check(buf[:n], initial)
			}
		}
	}
	rng.Read(buf)
	check(buf, rng.Uint32())
}

// fastKeyVectors are xxHash64 (seed 0) of the bytes byte(i*167+13), i < n,
// computed by an independent implementation: one length per combination of
// 32-byte steps and 8-, 4- and 1-byte tails. They pin the key across
// platforms, and to the published algorithm.
var fastKeyVectors = []struct {
	n    int
	want uint64
}{
	{0, 0xef46db3751d8e999}, {1, 0x2078e1ad38ad738b}, {3, 0x634d95fc01a189cd},
	{4, 0xeed340908a1ac6c6}, {5, 0x342bd7a5f3e2edcd}, {7, 0x0da493621d6dc898},
	{8, 0x76f916c7bb523126}, {9, 0x175d7bee83bd73b9}, {12, 0xfb52f89a1dc449d2},
	{13, 0x7e1a468bdd27b4d8}, {31, 0x65c5feb01da7464d}, {32, 0x7665c921c9bf2ec7},
	{33, 0xb5a9d9ef259ae821}, {36, 0xde4c0f568d54d497}, {40, 0xc94202b2b0886774},
	{45, 0x4e4237a872ced8e6}, {63, 0xb0289cd9324034f0}, {64, 0xfff2525c99bf2005},
	{95, 0x3b4ce2d430b0fde8}, {96, 0xb4c91238bebc5148}, {100, 0x74e502db362efd4c},
	{1514, 0x1eb87c79975028e5}, {65535, 0x43cb555858c9199c},
}

func TestFastKeyVectors(t *testing.T) {
	buf := make([]byte, 65535+1)
	for i := range buf[1:] {
		buf[1+i] = byte(i*167 + 13)
	}
	for _, v := range fastKeyVectors {
		// buf[1:] is odd-aligned: the key may not depend on alignment.
		if got := FastKey(buf[1 : 1+v.n]); got != v.want {
			t.Errorf("len %d: FastKey %#016x, want %#016x", v.n, got, v.want)
		}
	}
	for s, want := range map[string]uint64{
		"a":   0xd24ec4f1a98c6e5b,
		"abc": 0x44bc2cf5ad770999,
		"Nobody inspects the spammish repetition": 0xfbcea83c8a378bf1,
	} {
		if got := FastKey([]byte(s)); got != want {
			t.Errorf("%q: FastKey %#016x, want %#016x", s, got, want)
		}
	}
}

// central3Flow generates the frames of a Central3-shaped UDP flow: what
// UDPSource and Host.Send put on the wire (sequence number, send time,
// sequence-derived payload pattern, a fresh IP ID), 1,470 B of payload in
// a 1,512 B frame.
type central3Flow struct {
	pkt      *Packet
	patterns [256][1458]byte // by the sequence number's low byte
	wire     []byte
}

func newCentral3Flow() *central3Flow {
	src, dst := testEndpoints()
	f := &central3Flow{pkt: NewUDP(src, dst, make([]byte, 1470))}
	for s := range f.patterns {
		for j := range f.patterns[s] {
			f.patterns[s][j] = byte(s) ^ byte(j*131>>3) ^ byte(j)
		}
	}
	return f
}

// frame returns the i-th frame, valid until the next call.
func (f *central3Flow) frame(i uint32) []byte {
	payload := f.pkt.Payload
	binary.BigEndian.PutUint32(payload[0:4], i)
	binary.BigEndian.PutUint64(payload[4:12], uint64(i)*117_600+uint64(i%7)) // ns at 100 Mbit/s, jittered
	copy(payload[12:], f.patterns[byte(i)][:])
	f.pkt.IP.ID = uint16(i + 1)
	f.wire = f.pkt.MarshalInto(f.wire[:0])
	return f.wire
}

// TestFastKeyDistinguishesFrames: equal frames agree; frames one field,
// one bit or one trailing zero apart do not.
func TestFastKeyDistinguishesFrames(t *testing.T) {
	flow := newCentral3Flow()
	base := append([]byte(nil), flow.frame(41)...)
	if FastKey(base) != FastKey(flow.frame(41)) {
		t.Fatal("equal frames, different keys")
	}
	src, dst := testEndpoints()
	p, err := Unmarshal(base)
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string][]byte{}
	q := p.Clone()
	q.IP.ID++
	variants["IP ID"] = q.Marshal()
	q = p.Clone()
	binary.BigEndian.PutUint32(q.Payload[0:4], 42)
	variants["sequence number"] = q.Marshal()
	variants["next datagram"] = flow.frame(42)
	for _, pos := range []int{0, 7, 8, 31, 32, 41, 42, 1000, len(base) - 9, len(base) - 5, len(base) - 1} {
		b := append([]byte(nil), base...)
		b[pos] ^= 0x10
		variants[fmt.Sprintf("bit flipped in byte %d", pos)] = b
	}
	for n := 1; n <= 40; n++ {
		variants[fmt.Sprintf("%d trailing zero bytes", n)] = append(append([]byte(nil), base...), make([]byte, n)...)
	}
	// Zero frames of different lengths are the degenerate case of the same.
	for n := 0; n < 80; n++ {
		variants[fmt.Sprintf("%d zero bytes alone", n)] = make([]byte, n)
	}
	variants["short"] = NewUDP(src, dst, []byte("x")).Marshal()
	seen := map[uint64]string{FastKey(base): "base"}
	for name, b := range variants {
		k := FastKey(b)
		if other, dup := seen[k]; dup {
			t.Errorf("%s and %s share key %#016x", name, other, k)
		}
		seen[k] = name
	}
}

// TestFastKeyCentral3Population: over a million consecutive frames of the
// benchmark's flow no two keys collide (the compare would pay a wasted
// byte comparison for each), and the residues EdgeModeSample takes select
// their share: key%r == 0 on 1/r of the frames, within a tenth. The
// test runs on one goroutine, so under the race detector, which has
// nothing to check here, it takes the -short population.
func TestFastKeyCentral3Population(t *testing.T) {
	n := 1_000_000
	if testing.Short() || raceBuild {
		n = 100_000
	}
	rates := []uint64{2, 8, 16, 100}
	hits := make([]int, len(rates))
	keys := make([]uint64, n)
	flow := newCentral3Flow()
	for i := range keys {
		k := FastKey(flow.frame(uint32(i)))
		keys[i] = k
		for j, r := range rates {
			if k%r == 0 {
				hits[j]++
			}
		}
	}
	slices.Sort(keys)
	for i := 1; i < n; i++ {
		if keys[i] == keys[i-1] {
			t.Fatalf("two of %d frames share key %#016x", n, keys[i])
		}
	}
	for j, r := range rates {
		want := float64(n) / float64(r)
		if got := float64(hits[j]); got < 0.9*want || got > 1.1*want {
			t.Errorf("FastKey %% %d == 0 on %d of %d frames, want %.0f ± 10 %%", r, hits[j], n, want)
		}
	}
}

var (
	keySink uint64
	sumSink uint16
)

func BenchmarkFastKey(b *testing.B) {
	for _, size := range []int{64, 1514} {
		frame := make([]byte, size)
		rand.New(rand.NewSource(1)).Read(frame)
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				keySink = FastKey(frame)
			}
		})
	}
}

// BenchmarkChecksum prices the transport checksum of a full-MTU packet
// (1,500 B less the IP header).
func BenchmarkChecksum(b *testing.B) {
	seg := make([]byte, 1480)
	rand.New(rand.NewSource(1)).Read(seg)
	b.Run("1480", func(b *testing.B) {
		b.SetBytes(int64(len(seg)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sumSink = checksum(seg, 17)
		}
	})
}
