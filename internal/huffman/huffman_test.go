package huffman

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"ccx/internal/bitio"
	"ccx/internal/datagen"
)

func TestBuildLengthsBasic(t *testing.T) {
	// Classic example: probabilities 0.4, 0.3, 0.2, 0.1 over 4 symbols.
	freqs := []int64{40, 30, 20, 10}
	lengths, err := BuildLengths(freqs)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal average length is 1.9 bits; verify Kraft equality and that the
	// most frequent symbol has the shortest code.
	if lengths[0] > lengths[1] || lengths[1] > lengths[2] || lengths[2] > lengths[3] {
		t.Fatalf("lengths not monotone with frequency: %v", lengths)
	}
	var kraft float64
	for _, l := range lengths {
		kraft += 1 / float64(uint64(1)<<l)
	}
	if kraft != 1.0 {
		t.Fatalf("kraft sum = %v, want exactly 1 for a complete code", kraft)
	}
}

func TestBuildLengthsSingleSymbol(t *testing.T) {
	freqs := make([]int64, 256)
	freqs[65] = 100
	lengths, err := BuildLengths(freqs)
	if err != nil {
		t.Fatal(err)
	}
	if lengths[65] != 1 {
		t.Fatalf("single symbol length = %d, want 1", lengths[65])
	}
	for i, l := range lengths {
		if i != 65 && l != 0 {
			t.Fatalf("symbol %d has spurious length %d", i, l)
		}
	}
}

func TestBuildLengthsEmpty(t *testing.T) {
	if _, err := BuildLengths(make([]int64, 256)); err != ErrEmptyAlphabet {
		t.Fatalf("got %v want ErrEmptyAlphabet", err)
	}
}

func TestBuildLengthsNegative(t *testing.T) {
	if _, err := BuildLengths([]int64{1, -1}); err == nil {
		t.Fatal("expected error for negative frequency")
	}
}

func TestDepthLimiting(t *testing.T) {
	// Fibonacci frequencies force maximal Huffman depth; with enough symbols
	// the unconstrained tree exceeds MaxCodeLen and scaling must kick in.
	n := 64
	freqs := make([]int64, n)
	a, b := int64(1), int64(1)
	for i := 0; i < n; i++ {
		freqs[i] = a
		a, b = b, a+b
		if a < 0 { // overflow guard
			a = 1 << 60
		}
	}
	lengths, err := BuildLengths(freqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range lengths {
		if l > MaxCodeLen {
			t.Fatalf("symbol %d: length %d exceeds MaxCodeLen", i, l)
		}
		if l == 0 {
			t.Fatalf("symbol %d lost its code", i)
		}
	}
	// The limited lengths must still form a valid prefix code.
	if _, err := NewDecoder(lengths); err != nil {
		t.Fatalf("limited lengths not decodable: %v", err)
	}
}

func TestCanonicalOrdering(t *testing.T) {
	freqs := []int64{10, 10, 10, 10}
	lengths, _ := BuildLengths(freqs)
	enc, err := NewEncoder(lengths)
	if err != nil {
		t.Fatal(err)
	}
	// All codes are 2 bits; canonical assignment is by symbol order.
	for sym := 0; sym < 4; sym++ {
		if enc.codes[sym].Bits != uint64(sym) {
			t.Fatalf("canonical code for %d = %b", sym, enc.codes[sym].Bits)
		}
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog; " +
		"the quick brown fox jumps over the lazy dog again and again")
	out, err := Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(out, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatalf("roundtrip mismatch:\n got %q\nwant %q", back, data)
	}
}

func TestCompressEmpty(t *testing.T) {
	out, err := Compress(nil)
	if err != nil || out != nil {
		t.Fatalf("Compress(nil) = %v, %v", out, err)
	}
	back, err := Decompress(nil, 0)
	if err != nil || back != nil {
		t.Fatalf("Decompress(nil,0) = %v, %v", back, err)
	}
}

func TestCompressSingleByte(t *testing.T) {
	data := []byte{42}
	out, err := Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(out, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatalf("got %v", back)
	}
}

func TestCompressUniformByte(t *testing.T) {
	data := bytes.Repeat([]byte{7}, 10000)
	out, err := Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	// Single-symbol stream: ~1 bit/symbol plus table ≈ 1.3 KB.
	if len(out) > 2000 {
		t.Fatalf("uniform data compressed to %d bytes, expected < 2000", len(out))
	}
	back, err := Decompress(out, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("roundtrip mismatch")
	}
}

func TestCompressLowEntropyBeatsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	low := make([]byte, 64*1024)
	for i := range low {
		low[i] = byte(rng.Intn(4)) // 2 bits of entropy per byte
	}
	random := make([]byte, 64*1024)
	rng.Read(random)
	outLow, _ := Compress(low)
	outRand, _ := Compress(random)
	if len(outLow) >= len(low)/2 {
		t.Fatalf("low-entropy data: got %d bytes, expected < %d", len(outLow), len(low)/2)
	}
	if len(outRand) < len(random) {
		t.Logf("random data compressed to %d (incompressible as expected ~%d)", len(outRand), len(random))
	}
}

func TestWriteReadLengths(t *testing.T) {
	cases := [][]uint8{
		{0, 0, 0, 5, 0, 0, 2, 2, 3},
		make([]uint8, 256), // all zero runs
		{1, 1},
	}
	cases[1][255] = 8
	for ci, lengths := range cases {
		w := bitio.NewWriter(0)
		if err := WriteLengths(w, lengths); err != nil {
			t.Fatal(err)
		}
		r := bitio.NewReader(w.Bytes())
		got, err := ReadLengths(r, len(lengths))
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		if !bytes.Equal(got, lengths) {
			t.Fatalf("case %d: got %v want %v", ci, got, lengths)
		}
	}
}

func TestInvalidLengthTable(t *testing.T) {
	// Oversubscribed: three codes of length 1.
	if _, err := NewDecoder([]uint8{1, 1, 1}); err == nil {
		t.Fatal("expected error for oversubscribed lengths")
	}
	if _, err := NewEncoder([]uint8{0, 0}); err == nil {
		t.Fatal("expected error for empty code book")
	}
}

func TestEncodeUnknownSymbol(t *testing.T) {
	enc, err := NewEncoder([]uint8{1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	w := bitio.NewWriter(0)
	if err := enc.Encode(w, 2); err == nil {
		t.Fatal("expected ErrUnknownSymbol")
	}
	if err := enc.Encode(w, 99); err == nil {
		t.Fatal("expected ErrUnknownSymbol for out-of-range")
	}
}

func TestLargeAlphabet(t *testing.T) {
	// LZ uses alphabets larger than 256 (length/distance symbol spaces).
	n := 1024
	freqs := make([]int64, n)
	rng := rand.New(rand.NewSource(2))
	for i := range freqs {
		freqs[i] = int64(rng.Intn(1000) + 1)
	}
	lengths, err := BuildLengths(freqs)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(lengths)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(lengths)
	if err != nil {
		t.Fatal(err)
	}
	w := bitio.NewWriter(0)
	syms := make([]int, 5000)
	for i := range syms {
		syms[i] = rng.Intn(n)
		if err := enc.Encode(w, syms[i]); err != nil {
			t.Fatal(err)
		}
	}
	r := bitio.NewReader(w.Bytes())
	for i, want := range syms {
		got, err := dec.Decode(r)
		if err != nil {
			t.Fatalf("symbol %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("symbol %d: got %d want %d", i, got, want)
		}
	}
}

// TestQuickRoundtrip is the core property: Decompress(Compress(x)) == x for
// arbitrary byte strings.
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

// TestSelfSynchronization exercises the property from ref [31] the paper's
// BWT chunk format depends on: starting a canonical Huffman decode from an
// arbitrary bit offset re-synchronizes after a bounded number of symbols for
// typical codes. We verify the decoder recovers the tail of the stream.
func TestSelfSynchronization(t *testing.T) {
	data := bytes.Repeat([]byte("abracadabra synchronization test "), 200)
	freqs := make([]int64, 256)
	for _, b := range data {
		freqs[b]++
	}
	lengths, err := BuildLengths(freqs)
	if err != nil {
		t.Fatal(err)
	}
	enc, _ := NewEncoder(lengths)
	dec, _ := NewDecoder(lengths)
	w := bitio.NewWriter(0)
	for _, b := range data {
		enc.Encode(w, int(b))
	}
	full := w.Bytes()
	// Start decoding from a byte offset in the middle.
	r := bitio.NewReader(full[len(full)/2:])
	decoded := 0
	matchedTail := 0
	for {
		sym, err := dec.Decode(r)
		if err != nil {
			break
		}
		decoded++
		if bytes.IndexByte(data, byte(sym)) >= 0 {
			matchedTail++
		}
	}
	if decoded == 0 {
		t.Fatal("mid-stream decode produced nothing")
	}
	// All decoded symbols must come from the source alphabet: decoding
	// re-locks onto valid codewords.
	if matchedTail != decoded {
		t.Fatalf("decoded %d symbols but only %d were in-alphabet", decoded, matchedTail)
	}
}

func BenchmarkCompress64K(b *testing.B) {
	motif := []byte("operational information system record;")
	data := bytes.Repeat(motif, 64*1024/len(motif)+1)[:64*1024]
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompress64K(b *testing.B) {
	motif := []byte("operational information system record;")
	data := bytes.Repeat(motif, 64*1024/len(motif)+1)[:64*1024]
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

// TestLongCodesBeyondFastTable builds a skewed code book whose rare symbols
// get codes longer than the fast-table width, forcing the slow decode path.
func TestLongCodesBeyondFastTable(t *testing.T) {
	n := 300
	freqs := make([]int64, n)
	// Geometric-ish skew: a handful of very hot symbols, a long cold tail.
	for i := range freqs {
		switch {
		case i < 4:
			freqs[i] = 1 << 30
		case i < 16:
			freqs[i] = 1 << 18
		default:
			freqs[i] = 1
		}
	}
	lengths, err := BuildLengths(freqs)
	if err != nil {
		t.Fatal(err)
	}
	maxLen := uint8(0)
	for _, l := range lengths {
		if l > maxLen {
			maxLen = l
		}
	}
	if maxLen <= tableBits {
		t.Fatalf("maxLen = %d, test needs codes beyond the %d-bit fast table", maxLen, tableBits)
	}
	enc, err := NewEncoder(lengths)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(lengths)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	w := bitio.NewWriter(0)
	syms := make([]int, 4000)
	for i := range syms {
		if rng.Intn(3) == 0 {
			syms[i] = 16 + rng.Intn(n-16) // cold, long-code symbols
		} else {
			syms[i] = rng.Intn(16)
		}
		if err := enc.Encode(w, syms[i]); err != nil {
			t.Fatal(err)
		}
	}
	r := bitio.NewReader(w.Bytes())
	for i, want := range syms {
		got, err := dec.Decode(r)
		if err != nil {
			t.Fatalf("symbol %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("symbol %d: got %d want %d", i, got, want)
		}
	}
}

// corpusBlocks cuts the benchmark's corpus mix (benchmark/corpus.go: half
// OIS transactions at repetition 0.9, half XML documents) into blocks.
func corpusBlocks(seed int64, blocks, blockSize int) [][]byte {
	size := blocks * blockSize
	data := append(datagen.OISTransactions(size/2, 0.9, seed), datagen.XMLDocuments(size-size/2, seed+1)...)
	out := make([][]byte, 0, blocks)
	for off := 0; off+blockSize <= len(data); off += blockSize {
		out = append(out, data[off:off+blockSize])
	}
	return out
}

// TestCorpusByteIdentity pins the bytes Compress emits for 64 blocks of
// 128 KiB of the benchmark corpus to their SHA-256 as computed by the
// per-symbol encoder over container/heap code lengths (commit 2c3aaf8): the
// bulk paths and the hand-rolled heap must not move one bit.
func TestCorpusByteIdentity(t *testing.T) {
	const want = "19d93bb2bbd807b4ea41ff70adc3142ec73e34eb6c7a0aac8716c6a1cacc618a"
	h := sha256.New()
	for _, block := range corpusBlocks(1, 64, 128<<10) {
		out, err := Compress(block)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(out)
		back, err := Decompress(out, len(block))
		if err != nil || !bytes.Equal(back, block) {
			t.Fatalf("round trip failed: %v", err)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("Compress over the corpus hashes to %s, want %s", got, want)
	}
}

// TestBulkDecodeLongCodesAndTruncation sends the bulk decoder down its slow
// path (a byte alphabet skewed until rare values get codes longer than the
// fast table) and then cuts the stream at every length: a decode that would
// need bits past the end must fail, never read zeros as data.
func TestBulkDecodeLongCodesAndTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 0, 1<<16)
	for v := 0; v < 256; v++ {
		data = append(data, byte(v)) // once each: about 2^-16 of the text
	}
	for len(data) < cap(data) {
		data = append(data, "abcd"[rng.Intn(4)])
	}
	rng.Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] })
	freqs := make([]int64, 256)
	for _, b := range data {
		freqs[b]++
	}
	if lengths, err := BuildLengths(freqs); err != nil || slices.Max(lengths) <= tableBits {
		t.Fatalf("test needs codes beyond the %d-bit fast table (%v)", tableBits, err)
	}
	comp, err := Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(comp, len(data))
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("round trip through codes beyond the fast table failed: %v", err)
	}
	small := data[:300]
	comp, err = Compress(small)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(comp); cut++ {
		if _, err := Decompress(comp[:cut], len(small)); err == nil {
			t.Fatalf("stream cut to %d of %d bytes decoded without error", cut, len(comp))
		}
	}
}

// TestDecompressRefusesImplausibleLength: every code is at least one bit, so
// an origLen beyond eight per input byte is refused before it sizes anything.
func TestDecompressRefusesImplausibleLength(t *testing.T) {
	comp, err := Compress(bytes.Repeat([]byte("ab"), 100))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Decompress(comp, 1<<30)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing %d bytes declared as 1 GiB allocated %d bytes", len(comp), grew)
	}
}

// TestByteCodecSteadyStateAllocs: with the pool warm the byte codec
// allocates its result and nothing else. Warm is the least of several calls:
// a collection empties the pool, and under the race detector sync.Pool
// drops a quarter of what it is handed.
func TestByteCodecSteadyStateAllocs(t *testing.T) {
	block := corpusBlocks(1, 1, 128<<10)[0]
	comp, err := Compress(block)
	if err != nil {
		t.Fatal(err)
	}
	enc, dec := 1e9, 1e9
	for i := 0; i < 20; i++ {
		enc = min(enc, testing.AllocsPerRun(1, func() { Compress(block) }))
		dec = min(dec, testing.AllocsPerRun(1, func() { Decompress(comp, len(block)) }))
	}
	if enc > 2 || dec > 2 {
		t.Errorf("a 128 KiB block: Compress %.0f allocations, Decompress %.0f, want <= 2 each", enc, dec)
	}
}
