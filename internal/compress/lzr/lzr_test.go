package lzr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, src []byte) []byte {
	t.Helper()
	enc := Compress(src)
	dec, err := Decompress(enc)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if !bytes.Equal(dec, src) {
		t.Fatalf("round trip mismatch: %d in, %d out", len(src), len(dec))
	}
	return enc
}

func TestRoundTripEmpty(t *testing.T) {
	roundTrip(t, nil)
	roundTrip(t, []byte{})
}

func TestRoundTripSmall(t *testing.T) {
	for _, s := range []string{"a", "ab", "abc", "aaaa", "abcabcabcabc", "\x00\x00\x00"} {
		roundTrip(t, []byte(s))
	}
}

func TestRoundTripRepetitive(t *testing.T) {
	src := []byte(strings.Repeat("holographic telepresence ", 500))
	enc := roundTrip(t, src)
	if ratio := float64(len(src)) / float64(len(enc)); ratio < 20 {
		t.Errorf("repetitive text ratio = %.1f, want > 20", ratio)
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 10, 100, 1000, 100000} {
		src := make([]byte, n)
		rng.Read(src)
		enc := roundTrip(t, src)
		// Random data must not blow up badly.
		if len(enc) > n+n/8+64 {
			t.Errorf("random %d bytes expanded to %d", n, len(enc))
		}
	}
}

func TestRoundTripStructuredFloats(t *testing.T) {
	// Simulated pose-parameter payload: small deltas around fixed bytes,
	// the shape of SemHolo's keypoint frames.
	rng := rand.New(rand.NewSource(2))
	src := make([]byte, 0, 8000)
	for i := 0; i < 1000; i++ {
		src = append(src, 0x3F, 0x80, byte(rng.Intn(4)), byte(rng.Intn(16)),
			0, 0, byte(i&0xF), 0)
	}
	enc := roundTrip(t, src)
	if ratio := float64(len(src)) / float64(len(enc)); ratio < 2 {
		t.Errorf("structured floats ratio = %.2f, want > 2", ratio)
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(src []byte) bool {
		enc := Compress(src)
		dec, err := Decompress(enc)
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		[]byte("LZRX\x05hello"),
		[]byte("LZR1"), // missing length
	}
	for _, c := range cases {
		if _, err := Decompress(c); err == nil {
			t.Errorf("accepted garbage %v", c)
		}
	}
}

func TestDecompressTruncated(t *testing.T) {
	src := []byte(strings.Repeat("abcdefgh", 100))
	enc := Compress(src)
	for _, cut := range []int{len(enc) / 2, len(enc) - 1, 6} {
		if cut >= len(enc) {
			continue
		}
		if dec, err := Decompress(enc[:cut]); err == nil && bytes.Equal(dec, src) {
			t.Errorf("truncated stream at %d decoded to full original", cut)
		}
	}
}

func TestDecompressBitFlips(t *testing.T) {
	// Flipping bits must never panic; errors or wrong output are both
	// acceptable outcomes for a non-checksummed entropy stream.
	src := []byte(strings.Repeat("semantic holography ", 50))
	enc := Compress(src)
	for i := 4; i < len(enc); i += 7 {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x40
		_, _ = Decompress(mut) // must not panic
	}
}

// TestDecompressBombBounded: a 15-byte stream that declares 2 GiB of
// output must fail as corrupt without reserving the declared length.
func TestDecompressBombBounded(t *testing.T) {
	bomb := binary.AppendUvarint([]byte("LZR1"), 2<<30)
	bomb = append(bomb, 0, 0x5a, 0xc3, 0x3c, 0xa5, 0x99)
	if len(bomb) != 15 {
		t.Fatalf("bomb is %d bytes, want 15", len(bomb))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := Decompress(bomb)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("decompressing a 15-byte bomb allocated %d bytes", n)
	}
}

// TestCompressPooledTablesDeterministic: the recycled match-finder
// tables must not leak state between calls, so compressing the same
// input before and after unrelated inputs yields the same bytes.
func TestCompressPooledTablesDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := []byte(strings.Repeat("keypoint pose frame ", 100))
	first := Compress(a)
	for _, n := range []int{10, 5000, 70000} {
		other := make([]byte, n)
		rng.Read(other)
		roundTrip(t, other)
	}
	if again := Compress(a); !bytes.Equal(again, first) {
		t.Fatal("compressed bytes changed after the pooled tables were reused")
	}
}

func TestDistSlotRoundTrip(t *testing.T) {
	for _, d := range []uint32{1, 2, 3, 4, 5, 7, 8, 100, 1023, 1024, 65535, 1 << 20, 1<<28 + 12345} {
		slot, footer, fb := distSlot(d)
		if fb > 30 {
			t.Fatalf("dist %d: footer bits %d", d, fb)
		}
		if got := distFromSlot(slot, footer); got != d {
			t.Fatalf("dist %d -> slot %d footer %d -> %d", d, slot, footer, got)
		}
	}
}

func TestAllByteValues(t *testing.T) {
	src := make([]byte, 256*4)
	for i := range src {
		src[i] = byte(i)
	}
	roundTrip(t, src)
}

func BenchmarkCompress64K(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	src := make([]byte, 64*1024)
	for i := range src {
		if i > 100 && rng.Intn(3) > 0 {
			src[i] = src[i-100]
		} else {
			src[i] = byte(rng.Intn(64))
		}
	}
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compress(src)
	}
}

func BenchmarkDecompress64K(b *testing.B) {
	src := []byte(strings.Repeat("volumetric content delivery ", 2400))
	enc := Compress(src)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(enc); err != nil {
			b.Fatal(err)
		}
	}
}
