package bwt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"ccx/internal/huffman"
)

func TestTransformKnownVector(t *testing.T) {
	// The canonical BWT example: "banana".
	last, primary := Transform([]byte("banana"))
	// Sorted rotations:
	//   abanan(5) ananab(3)? — verify instead via inverse below, but the
	//   last column of sorted rotations of "banana" is well known: "nnbaaa".
	if string(last) != "nnbaaa" {
		t.Fatalf("last column = %q, want %q", last, "nnbaaa")
	}
	back, err := Inverse(last, primary)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != "banana" {
		t.Fatalf("inverse = %q", back)
	}
}

func TestTransformEmpty(t *testing.T) {
	last, primary := Transform(nil)
	if last != nil || primary != 0 {
		t.Fatalf("got %v %d", last, primary)
	}
	back, err := Inverse(nil, 0)
	if err != nil || back != nil {
		t.Fatalf("got %v %v", back, err)
	}
}

func TestTransformSingle(t *testing.T) {
	last, primary := Transform([]byte{'z'})
	if string(last) != "z" || primary != 0 {
		t.Fatalf("got %q %d", last, primary)
	}
}

func TestTransformPeriodic(t *testing.T) {
	// All rotations of a periodic string are equal per period class; the
	// sort handles the root once and the result must still invert.
	for _, s := range []string{"aaaa", "abababab", "xyzxyzxyz"} {
		last, primary := Transform([]byte(s))
		back, err := Inverse(last, primary)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if string(back) != s {
			t.Fatalf("%q: inverse = %q", s, back)
		}
	}
}

func TestTransformIsPermutation(t *testing.T) {
	data := []byte("the burrows wheeler transform permutes but never loses bytes")
	last, _ := Transform(data)
	want := append([]byte(nil), data...)
	got := append([]byte(nil), last...)
	for _, s := range [][]byte{want, got} {
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && s[j-1] > s[j]; j-- {
				s[j-1], s[j] = s[j], s[j-1]
			}
		}
	}
	if !bytes.Equal(want, got) {
		t.Fatal("transform output is not a permutation of input")
	}
}

func TestInverseBadPrimary(t *testing.T) {
	if _, err := Inverse([]byte("abc"), 3); err == nil {
		t.Fatal("expected error for out-of-range primary")
	}
	if _, err := Inverse([]byte("abc"), -1); err == nil {
		t.Fatal("expected error for negative primary")
	}
}

// ranksOf undoes the run-length layer alone: the n move-to-front ranks enc
// codes.
func ranksOf(t *testing.T, enc []byte, n int) []byte {
	t.Helper()
	ranks := make([]byte, n)
	if err := rleDecode(ranks, enc); err != nil {
		t.Fatal(err)
	}
	return ranks
}

// rleEncode run-length codes a rank stream through appendMTFRLE, by handing
// it the column whose move-to-front ranks are exactly those.
func rleEncode(ranks []byte) []byte {
	col := bytes.Clone(ranks)
	mtfDecode(col)
	return appendMTFRLE(nil, col)
}

func TestMTFRoundtrip(t *testing.T) {
	cases := [][]byte{
		[]byte("mississippi"),
		{0, 0, 0, 255, 255, 1, 2, 3},
		bytes.Repeat([]byte{9}, 1000),
		{},
	}
	for i, data := range cases {
		dec := ranksOf(t, appendMTFRLE(nil, data), len(data))
		mtfDecode(dec)
		if !bytes.Equal(dec, data) {
			t.Fatalf("case %d: roundtrip mismatch", i)
		}
	}
}

func TestMTFFrontLoading(t *testing.T) {
	// Repeated bytes must map to zeros after the first occurrence.
	enc := ranksOf(t, appendMTFRLE(nil, []byte{7, 7, 7, 7}), 4)
	if enc[0] != 7 {
		t.Fatalf("first position = %d, want original list index 7", enc[0])
	}
	for i := 1; i < 4; i++ {
		if enc[i] != 0 {
			t.Fatalf("position %d = %d, want 0", i, enc[i])
		}
	}
}

func TestRLERoundtrip(t *testing.T) {
	cases := [][]byte{
		{},
		{1, 2, 3},
		bytes.Repeat([]byte{0}, 1000),  // long zero run (typical MTF output)
		bytes.Repeat([]byte{5}, 3),     // exactly the triple threshold
		bytes.Repeat([]byte{5}, 254),   // exactly the cap
		bytes.Repeat([]byte{5}, 255),   // one over the cap
		bytes.Repeat([]byte{5}, 600),   // multiple capped runs
		{254, 254, 255, 255, 255, 253}, // escape values
		bytes.Repeat([]byte{255}, 10),  // runs of the escaped value
		{253, 253, 253, 253, 254, 0, 255},
	}
	for i, data := range cases {
		enc := rleEncode(data)
		for _, b := range enc {
			if b == 255 {
				t.Fatalf("case %d: reserved byte 255 appears in RLE output", i)
			}
		}
		if dec := ranksOf(t, enc, len(data)); !bytes.Equal(dec, data) {
			t.Fatalf("case %d: roundtrip mismatch: got %v want %v", i, dec, data)
		}
	}
}

func TestRLENever255(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		data := make([]byte, rng.Intn(5000))
		for i := range data {
			// Bias toward runs and high values.
			if rng.Intn(3) == 0 && i > 0 {
				data[i] = data[i-1]
			} else {
				data[i] = byte(rng.Intn(256))
			}
		}
		enc := rleEncode(data)
		if bytes.IndexByte(enc, 255) >= 0 {
			t.Fatal("reserved byte in output")
		}
		if dec := ranksOf(t, enc, len(data)); !bytes.Equal(dec, data) {
			t.Fatal("roundtrip failed")
		}
	}
}

func TestRLEDecodeCorrupt(t *testing.T) {
	cases := []struct {
		src []byte
		n   int // declared length
	}{
		{[]byte{255}, 1},            // marker inside chunk
		{[]byte{254}, 1},            // truncated escape
		{[]byte{254, 2}, 1},         // bad escape discriminator
		{[]byte{7, 7, 7}, 3},        // missing run count
		{[]byte{7, 7, 7, 252}, 255}, // run count over cap
		{[]byte{7, 7, 7, 100}, 102}, // one byte more than declared
		{[]byte{7, 7, 7, 100}, 104}, // one byte fewer
		{[]byte{1, 2}, 1},           // the second byte has nowhere to go
	}
	for i, c := range cases {
		if err := rleDecode(make([]byte, c.n), c.src); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("case %d: got %v, want ErrCorrupt", i, err)
		}
	}
}

func roundtrip(t *testing.T, data []byte, chunk int) {
	t.Helper()
	out, err := CompressChunked(data, chunk)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(out, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatalf("roundtrip mismatch (len %d, chunk %d)", len(data), chunk)
	}
}

func TestCompressRoundtrip(t *testing.T) {
	data := bytes.Repeat([]byte("effective end to end data exchange using configurable compression. "), 500)
	for _, chunk := range []int{64, 1024, DefaultChunkSize, 1 << 20} {
		roundtrip(t, data, chunk)
	}
}

func TestCompressEmpty(t *testing.T) {
	out, err := Compress(nil)
	if err != nil || out != nil {
		t.Fatalf("got %v %v", out, err)
	}
	back, err := Decompress(nil, 0)
	if err != nil || back != nil {
		t.Fatalf("got %v %v", back, err)
	}
}

func TestCompressSmall(t *testing.T) {
	for n := 1; n < 20; n++ {
		data := bytes.Repeat([]byte{'q'}, n)
		roundtrip(t, data, DefaultChunkSize)
	}
}

func TestCompressRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 100, 4096, 50000} {
		data := make([]byte, n)
		rng.Read(data)
		roundtrip(t, data, 8192)
	}
}

func TestCompressAllByteValues(t *testing.T) {
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}
	roundtrip(t, data, 1024)
}

func TestCompressInvalidChunk(t *testing.T) {
	if _, err := CompressChunked([]byte("x"), 0); err == nil {
		t.Fatal("expected error for chunk size 0")
	}
}

func TestCompressionBeatsLZStyleOnText(t *testing.T) {
	// The paper ranks BWT as the strongest method on repetitive text.
	data := bytes.Repeat([]byte("operational information system transaction; airline booking record; "), 1500)
	out, err := Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(len(out)) / float64(len(data)); ratio > 0.10 {
		t.Fatalf("BWT ratio on repetitive text = %.3f, want < 0.10", ratio)
	}
}

func TestDecompressCorrupt(t *testing.T) {
	data := bytes.Repeat([]byte("payload "), 500)
	out, err := Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(out[:len(out)/3], len(data)); err == nil {
		t.Fatal("expected error on truncation")
	}
	if _, err := Decompress([]byte{0x01}, 10); err == nil {
		t.Fatal("expected error on garbage")
	}
	// Wrong original length must be detected.
	if _, err := Decompress(out, len(data)+1); err == nil {
		t.Fatal("expected error on wrong length")
	}
}

func TestQuickTransformRoundtrip(t *testing.T) {
	f := func(data []byte) bool {
		last, primary := Transform(data)
		back, err := Inverse(last, primary)
		if err != nil {
			return false
		}
		return bytes.Equal(back, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPipelineRoundtrip(t *testing.T) {
	f := func(data []byte) bool {
		out, err := CompressChunked(data, 512)
		if err != nil {
			return false
		}
		back, err := Decompress(out, len(data))
		if err != nil {
			return false
		}
		return bytes.Equal(back, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// benchInputs are the three regimes of the rotation sort: the corpus the
// benchmark sends (short common prefixes), a motif repeated to length whose
// period does not divide it (common prefixes thousands of bytes long — the
// old doubling sorter's worst case), and an exact power u^k, which sorts u
// once.
func benchInputs(size int) []struct {
	name string
	data []byte
} {
	blocks := corpusBlocks(1, 2, size) // one of OIS transactions, one of XML
	motif := []byte("transaction: passenger rebooked ATL->JFK seat 22A; ")
	return []struct {
		name string
		data []byte
	}{
		{"corpus", append(bytes.Clone(blocks[0][:size/2]), blocks[1][:size-size/2]...)},
		{"periodic", bytes.Repeat(motif, size/len(motif)+1)[:size]},
		{"power", bytes.Repeat(blocks[0][:64], size/64)},
	}
}

func BenchmarkTransform16K(b *testing.B) {
	for _, in := range benchInputs(16 << 10) {
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(len(in.data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Transform(in.data)
			}
		})
	}
}

func BenchmarkCompress128K(b *testing.B) {
	for _, in := range benchInputs(128 << 10) {
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(len(in.data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compress(in.data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecompress128K(b *testing.B) {
	for _, in := range benchInputs(128 << 10) {
		b.Run(in.name, func(b *testing.B) {
			out, err := Compress(in.data)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(in.data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Decompress(out, len(in.data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInverse16K inverts four 16 KiB chunks of the corpus per
// iteration, table build included: one chain at a time, and the four chains
// in one loop as Decompress walks a full group.
func BenchmarkInverse16K(b *testing.B) {
	var s scratch
	var out [lanes][]byte
	var row [lanes]uint32
	var cols [lanes][]byte
	data := benchInputs(lanes * DefaultChunkSize)[0].data
	for g := range cols {
		last, primary := Transform(data[g*DefaultChunkSize:][:DefaultChunkSize])
		cols[g], row[g], out[g] = last, uint32(primary), make([]byte, DefaultChunkSize)
	}
	run := func(name string, walkAll func()) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for g, last := range cols {
					s.lf[g] = lfTable(s.lf[g], last)
				}
				walkAll()
			}
			b.StopTimer()
			if got := bytes.Join(out[:], nil); !bytes.Equal(got, data) {
				b.Fatal("inverse differs from the source")
			}
		})
	}
	run("one", func() {
		for g := range out {
			walk(out[g], s.lf[g], row[g])
		}
	})
	run("four", func() { walk4(&out, &s.lf, row) })
}

// TestCorpusByteIdentity pins the bytes Compress emits for 64 blocks of
// 128 KiB of the benchmark corpus to their SHA-256 as computed with the
// doubling sorter and the unfused, per-stage pipeline (commit 2c3aaf8): a
// faster block path is the same bytes on the wire, or it is a format change.
func TestCorpusByteIdentity(t *testing.T) {
	const want = "03ca701daca87271523885af1b6c91a75eea90cea769850527c1584eba8eedfd"
	h := sha256.New()
	for _, block := range corpusBlocks(1, 64, 128<<10) {
		out, err := Compress(block)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(out)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("Compress over the corpus hashes to %s, want %s", got, want)
	}
}

// TestPrimaryOfPower pins the one place the output is defined anew: among
// equal rows the chunk's primary index is the first, and every one of them
// — whichever an older encoder named — inverts to the chunk.
func TestPrimaryOfPower(t *testing.T) {
	for _, c := range []struct {
		root string
		k    int
	}{{"ab", 4}, {"ba", 4}, {"a", 7}, {"compression ", 8}} {
		src := bytes.Repeat([]byte(c.root), c.k)
		last, primary := Transform(src)
		if primary%c.k != 0 {
			t.Fatalf("%q^%d: primary %d is not the first of its %d equal rows", c.root, c.k, primary, c.k)
		}
		for row := primary; row < primary+c.k; row++ {
			back, err := Inverse(last, row)
			if err != nil || !bytes.Equal(back, src) {
				t.Fatalf("%q^%d: row %d inverts to %q, %v", c.root, c.k, row, back, err)
			}
		}
	}
}

// TestPooledScratchConcurrent runs blocks of very different sizes through
// Compress and Decompress on 8 goroutines at once, so scratch values change
// hands between sizes and goroutines; every output must equal the one a
// lone goroutine produced. Run it under -race.
func TestPooledScratchConcurrent(t *testing.T) {
	corpus := corpusBlocks(3, 2, 256<<10)
	var blocks, want [][]byte
	for i, size := range []int{1, 2, 3, 100, 4 << 10, 16<<10 - 1, 16 << 10, 16<<10 + 1, 64 << 10, 128 << 10, 256 << 10} {
		block := corpus[i%2][:size]
		out, err := Compress(block)
		if err != nil {
			t.Fatal(err)
		}
		blocks, want = append(blocks, block), append(want, out)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range blocks {
					i = (i + g) % len(blocks)
					out, err := Compress(blocks[i])
					if err != nil || !bytes.Equal(out, want[i]) {
						t.Errorf("goroutine %d: Compress of %d bytes differs from the serial output (%v)", g, len(blocks[i]), err)
						return
					}
					back, err := Decompress(out, len(blocks[i]))
					if err != nil || !bytes.Equal(back, blocks[i]) {
						t.Errorf("goroutine %d: Decompress of %d bytes: round trip failed (%v)", g, len(blocks[i]), err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// warmAllocs is the number of allocations one call of fn makes when the
// pools it draws on are warm: the least over several calls, because a
// collection empties the pools and the race detector makes sync.Pool drop a
// quarter of what it is handed, and either makes one call rebuild a scratch.
func warmAllocs(fn func()) float64 {
	least := testing.AllocsPerRun(1, fn)
	for i := 0; i < 12; i++ {
		least = min(least, testing.AllocsPerRun(1, fn))
	}
	return least
}

// TestBWTSteadyStateAllocs holds the block path to its result plus small
// change once the pools are warm.
func TestBWTSteadyStateAllocs(t *testing.T) {
	block := corpusBlocks(1, 1, 128<<10)[0]
	out, err := Compress(block)
	if err != nil {
		t.Fatal(err)
	}
	if n := warmAllocs(func() { Compress(block) }); n > 16 {
		t.Errorf("Compress of a 128 KiB block: %.0f allocations, want <= 16", n)
	}
	if n := warmAllocs(func() { Decompress(out, len(block)) }); n > 8 {
		t.Errorf("Decompress of a 128 KiB block: %.0f allocations, want <= 8", n)
	}
}

// lengthBomb is a 163,852-byte payload that declares one chunk of length 1
// and follows it with 262,144 maximal runs: run-length expanded before the
// length check, it asked the decoder for hundreds of megabytes.
func lengthBomb() (payload []byte, origLen int) {
	inter := encode7(encode7(nil, 1), 0)
	inter = append(inter, bytes.Repeat([]byte{0, 0, 0, 251}, 262144)...)
	inter = append(inter, marker)
	return streamOf(inter), 512 << 10
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

func TestDecompressLengthBomb(t *testing.T) {
	payload, origLen := lengthBomb()
	var err error
	grew := allocatedBy(func() { _, err = Decompress(payload, origLen) })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	if grew >= 4<<20 {
		t.Fatalf("refusing a %d-byte payload allocated %d bytes, want < 4 MiB", len(payload), grew)
	}
	// A chunk header may not claim more than is left of the block either.
	payload = streamOf(append(encode7(encode7(nil, 17), 0), 0, marker))
	if _, err := Decompress(payload, 16); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("chunk longer than the block: got %v, want ErrCorrupt", err)
	}
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

// TestCompressYieldsPerChunk: an encode holds its processor for one chunk at
// a time, so a 128 KiB block lets whatever else is runnable — the wire
// writer back from its pacing sleep — in eight times.
func TestCompressYieldsPerChunk(t *testing.T) {
	block := corpusBlocks(1, 1, 128<<10)[0]
	if n := yieldsDuring(func() { Compress(block) }); n < 8 {
		t.Fatalf("Compress of a 128 KiB block yielded %d times, want >= 8", n)
	}
}

// TestDecompressYieldsPerGroup: a decode yields once per group of four
// chunks, not per chunk — each yield can queue it behind an encoder's chunk,
// and the sender's writer is waiting on it.
func TestDecompressYieldsPerGroup(t *testing.T) {
	block := corpusBlocks(1, 1, 128<<10)[0]
	out, err := Compress(block)
	if err != nil {
		t.Fatal(err)
	}
	if n := yieldsDuring(func() { Decompress(out, len(block)) }); n < 2 {
		t.Fatalf("Decompress of a 128 KiB block yielded %d times, want >= 2", n)
	}
}

// streamOf assembles a compressed block from chunks stated outright, as the
// encoder would lay them out, so that a test can state a wrong one.
func streamOf(chunks ...[]byte) []byte {
	inter := bytes.Join(chunks, nil)
	payload, err := huffman.AppendCompress(binary.AppendUvarint(nil, uint64(len(inter))), inter)
	if err != nil {
		panic(err)
	}
	return payload
}

// chunkOf is one chunk of a stream: its header, with primary moved by
// shift, its coded column and the marker.
func chunkOf(text []byte, shift int) []byte {
	last, primary := Transform(text)
	return append(appendMTFRLE(encode7(encode7(nil, len(text)), primary+shift), last), marker)
}

// TestDecompressBadGroups: a primary index outside its chunk is refused in
// whichever lane of a group it arrives, before any chain is walked, and so
// is a group cut short inside a chunk.
func TestDecompressBadGroups(t *testing.T) {
	text := corpusBlocks(1, 1, 5*1024)[0]
	var good [][]byte
	for off := 0; off < len(text); off += 1024 {
		good = append(good, chunkOf(text[off:off+1024], 0))
	}
	if back, err := Decompress(streamOf(good...), len(text)); err != nil || !bytes.Equal(back, text) {
		t.Fatalf("five chunks stated outright do not decode: %v", err)
	}
	for lane := range good {
		bad := slices.Clone(good)
		bad[lane] = chunkOf(text[lane*1024:][:1024], 1024) // primary + n: past the last row
		if _, err := Decompress(streamOf(bad...), len(text)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("primary out of range in chunk %d: got %v, want ErrCorrupt", lane, err)
		}
		cut := slices.Clone(good[:lane+1])
		cut[lane] = cut[lane][:len(cut[lane])/2]
		if _, err := Decompress(streamOf(cut...), len(text)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("stream cut inside chunk %d: got %v, want ErrCorrupt", lane, err)
		}
	}
}
