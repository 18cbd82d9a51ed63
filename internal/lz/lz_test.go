package lz

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"ccx/internal/datagen"
)

func roundtrip(t *testing.T, data []byte) {
	t.Helper()
	out, err := Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(out, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatalf("roundtrip mismatch (len %d)", len(data))
	}
}

func TestRoundtripBasic(t *testing.T) {
	roundtrip(t, []byte("abcabcabcabc repeated strings compress well abcabcabc"))
}

func TestRoundtripEmpty(t *testing.T) {
	out, err := Compress(nil)
	if err != nil || out != nil {
		t.Fatalf("Compress(nil) = %v, %v", out, err)
	}
	back, err := Decompress(nil, 0)
	if err != nil || back != nil {
		t.Fatalf("Decompress(nil, 0) = %v, %v", back, err)
	}
}

func TestRoundtripShort(t *testing.T) {
	for n := 1; n <= 8; n++ {
		roundtrip(t, []byte("abcdefgh")[:n])
	}
}

func TestRoundtripNoMatches(t *testing.T) {
	// All-distinct bytes: literal-only stream, no distance table.
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	roundtrip(t, data)
}

func TestRoundtripOverlappingCopy(t *testing.T) {
	// RLE-style run: matches with dist 1 < length exercise overlapping copy.
	roundtrip(t, bytes.Repeat([]byte{'x'}, 100000))
	roundtrip(t, bytes.Repeat([]byte{'a', 'b'}, 50000))
}

func TestRoundtripLongRange(t *testing.T) {
	// A repeat separated by nearly the full window.
	var b bytes.Buffer
	b.WriteString("SIGNATURE-BLOCK-0123456789")
	rng := rand.New(rand.NewSource(5))
	filler := make([]byte, windowSize-100)
	rng.Read(filler)
	b.Write(filler)
	b.WriteString("SIGNATURE-BLOCK-0123456789")
	roundtrip(t, b.Bytes())
}

func TestRoundtripMaxMatch(t *testing.T) {
	// Runs longer than maxMatch force chained max-length matches.
	roundtrip(t, bytes.Repeat([]byte{0}, maxMatch*4+7))
}

func TestRoundtripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 100, 4096, 70000, 200000} {
		data := make([]byte, n)
		rng.Read(data)
		roundtrip(t, data)
	}
}

func TestRoundtripStructured(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		sb.WriteString("<transaction id='")
		sb.WriteString(strings.Repeat("9", i%5+1))
		sb.WriteString("' type='booking' carrier='DL'/>\n")
	}
	roundtrip(t, []byte(sb.String()))
}

func TestCompressionRatioRepetitive(t *testing.T) {
	data := bytes.Repeat([]byte("flight record: ATL->TLV seat 17C status OK;"), 2000)
	out, err := Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(len(out)) / float64(len(data)); ratio > 0.05 {
		t.Fatalf("highly repetitive ratio = %.3f, want < 0.05", ratio)
	}
}

func TestLengthSymBuckets(t *testing.T) {
	for l := minMatch; l <= maxMatch; l++ {
		s := lengthSym(l)
		base := lengthBase[s]
		if l < base {
			t.Fatalf("length %d mapped below bucket base %d", l, base)
		}
		if extra := l - base; extra >= 1<<lengthExtra[s] {
			t.Fatalf("length %d: extra %d overflows %d extra bits", l, extra, lengthExtra[s])
		}
	}
}

func TestDistSymBuckets(t *testing.T) {
	for _, d := range []int{1, 2, 3, 4, 5, 100, 1024, 5000, 32767, 32768} {
		s := distSym(d)
		base := distBase[s]
		if d < base {
			t.Fatalf("dist %d mapped below bucket base %d", d, base)
		}
		if extra := d - base; extra >= 1<<distExtra[s] {
			t.Fatalf("dist %d: extra %d overflows %d extra bits", d, extra, distExtra[s])
		}
	}
}

func TestDecompressCorrupt(t *testing.T) {
	data := bytes.Repeat([]byte("hello world "), 100)
	out, err := Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	// Truncation must error, not panic or hang.
	for _, cut := range []int{1, len(out) / 2, len(out) - 1} {
		if _, err := Decompress(out[:cut], len(data)); err == nil {
			t.Logf("truncation at %d decoded cleanly (possible but unusual)", cut)
		}
	}
	// Bit flips must never panic.
	for i := 0; i < len(out); i += 7 {
		mut := append([]byte(nil), out...)
		mut[i] ^= 0x55
		back, err := Decompress(mut, len(data))
		if err == nil && !bytes.Equal(back, data) {
			// Silent corruption at this layer is acceptable; the codec frame
			// adds CRC-32 on top.
			continue
		}
	}
}

func TestDecompressWrongLength(t *testing.T) {
	data := []byte("some data to compress, repeated: some data to compress")
	out, _ := Compress(data)
	if back, err := Decompress(out, len(data)/2); err == nil && len(back) != len(data)/2 {
		t.Fatalf("wrong-length decode returned %d bytes", len(back))
	}
}

func TestQuickRoundtrip(t *testing.T) {
	f := func(data []byte) bool {
		out, err := Compress(data)
		if err != nil {
			return false
		}
		back, err := Decompress(out, len(data))
		if err != nil {
			return false
		}
		return bytes.Equal(back, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRepetitiveRoundtrip biases quick inputs toward repetitive data so
// match paths get heavy property coverage too.
func TestQuickRepetitiveRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		motifs := make([][]byte, rng.Intn(5)+1)
		for i := range motifs {
			m := make([]byte, rng.Intn(40)+1)
			rng.Read(m)
			motifs[i] = m
		}
		var b bytes.Buffer
		for b.Len() < 20000 {
			b.Write(motifs[rng.Intn(len(motifs))])
		}
		data := b.Bytes()
		out, err := Compress(data)
		if err != nil {
			return false
		}
		back, err := Decompress(out, len(data))
		if err != nil {
			return false
		}
		return bytes.Equal(back, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCompress128K(b *testing.B) {
	motif := []byte("transaction: passenger rebooked ATL->JFK seat 22A; ")
	data := bytes.Repeat(motif, 128*1024/len(motif)+1)[:128*1024]
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompress128K(b *testing.B) {
	motif := []byte("transaction: passenger rebooked ATL->JFK seat 22A; ")
	data := bytes.Repeat(motif, 128*1024/len(motif)+1)[:128*1024]
	out, err := Compress(data)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(out, len(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSymBucketsExhaustive sweeps every encodable distance, pinning the
// bucket tables against off-by-one drift.
func TestSymBucketsExhaustive(t *testing.T) {
	for d := 1; d <= 32768; d++ {
		s := distSym(d)
		if s < 0 || s >= len(distBase) {
			t.Fatalf("dist %d: bucket %d out of range", d, s)
		}
		if d < distBase[s] {
			t.Fatalf("dist %d below base of bucket %d", d, s)
		}
		if extra := d - distBase[s]; extra >= 1<<distExtra[s] {
			t.Fatalf("dist %d overflows bucket %d", d, s)
		}
	}
}

// TestDecompressMatchBeforeStart crafts a stream whose first token is a
// match (no history yet): the decoder must reject it.
func TestDecompressMatchBeforeStart(t *testing.T) {
	// Compress something with matches, then decode claiming a tiny original
	// length so every continuation is malformed in some way; at minimum the
	// decoder must not panic or read out of bounds.
	data := bytes.Repeat([]byte("abcd"), 2000)
	out, err := Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, claim := range []int{1, 2, 3, 5, 17} {
		if back, err := Decompress(out, claim); err == nil && len(back) != claim {
			t.Fatalf("claim %d: got %d bytes with nil error", claim, len(back))
		}
	}
}

// TestCompressAllSameHash stresses hash-chain walking: many positions share
// one hash bucket.
func TestCompressAllSameHash(t *testing.T) {
	data := bytes.Repeat([]byte{0xAA, 0xBB, 0xCC}, 40000)
	roundtrip(t, data)
}

// TestDecompressOverlappingMatches round-trips runs of every period up to
// the longest match against every match length the format has: a match that
// overlaps its own output is copied in doubling steps, and each step has to
// land on a whole number of periods.
func TestDecompressOverlappingMatches(t *testing.T) {
	for period := 1; period <= maxMatch+2; period++ {
		motif := make([]byte, period)
		for i := range motif {
			motif[i] = byte(i*7 + period)
		}
		for _, n := range []int{period + minMatch, period + maxMatch, 3*period + 1, 5 * maxMatch} {
			roundtrip(t, bytes.Repeat(motif, n/period+1)[:n])
		}
	}
}

// allocatedBy reports the bytes fn allocated, as the growth of the
// process's cumulative allocation count.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecompressLengthBomb: a kilobyte of tokens cannot be 16 MiB of text,
// and the decoder says so before it sizes anything by the claim.
func TestDecompressLengthBomb(t *testing.T) {
	payload, err := Compress(datagen.OISTransactions(8<<10, 0.9, 1))
	if err != nil {
		t.Fatal(err)
	}
	payload = payload[:1<<10]
	grew := allocatedBy(func() { _, err = Decompress(payload, 16<<20) })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	if grew >= 1<<20 {
		t.Fatalf("refusing a %d-byte payload allocated %d bytes, want < 1 MiB", len(payload), grew)
	}
	// The most a stream can legitimately expand is still accepted: one
	// literal and then maximal matches at distance 1.
	zeros := make([]byte, 1<<20)
	roundtrip(t, zeros)
}

// yieldsDuring runs fn on one processor beside a goroutine that does nothing
// but count its turns and yield, and returns the count: how many times fn
// gave the processor up. No clock is involved. One scheduling round in 61
// serves the global run queue out of turn, and a goroutine that has just
// yielded may be the head of it: that yield is handed straight back and
// goes uncounted (a single run of a 128 KiB block reads one short about one
// time in five). A count can only fall short that way, so the most of eight
// runs is the number of yields.
func yieldsDuring(fn func()) int {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	most := 0
	for attempt := 0; attempt < 8; attempt++ {
		var stop atomic.Bool
		turns, done := 0, make(chan struct{})
		go func() {
			defer close(done)
			for !stop.Load() {
				turns++
				runtime.Gosched()
			}
		}()
		fn()
		stop.Store(true)
		<-done
		most = max(most, turns)
	}
	return most
}

// TestCompressYieldsPerChunk: parsing a 128 KiB block hands the processor
// over after each 16 KiB, so nothing queued behind it waits out the block.
func TestCompressYieldsPerChunk(t *testing.T) {
	block := datagen.OISTransactions(128<<10, 0.9, 1)
	if n := yieldsDuring(func() { Compress(block) }); n < 8 {
		t.Fatalf("Compress of a 128 KiB block yielded %d times, want >= 8", n)
	}
}
