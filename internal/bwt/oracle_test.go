package bwt

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ccx/internal/datagen"
)

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

// Transform is the transform of any src, empty included, in a slice of its
// own.
func Transform(src []byte) (last []byte, primary int) {
	if len(src) == 0 {
		return nil, 0
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	col, primary := s.transform(src)
	return bytes.Clone(col), primary
}

// Inverse reverses Transform, by the one-lane walk.
func Inverse(last []byte, primary int) ([]byte, error) {
	if len(last) == 0 {
		return nil, nil
	}
	if primary < 0 || primary >= len(last) {
		return nil, fmt.Errorf("%w: primary index %d out of range", ErrCorrupt, primary)
	}
	dst := make([]byte, len(last))
	walk(dst, lfTable(nil, last), uint32(primary))
	return dst, nil
}

// sortRotationsDoubling is the rotation sorter this package shipped before
// the linear-time one, kept as an oracle fast enough for whole corpus
// chunks: the cyclic-shift variant of Manber-Myers prefix doubling, one
// counting sort per round, O(n log n). Equal rotations come out in an order
// that depends on how many rounds ran.
func sortRotationsDoubling(src []byte) []int {
	n := len(src)
	const alphabet = 256
	p := make([]int, n) // rotations in current sorted order
	c := make([]int, n) // equivalence class of each rotation prefix
	cnt := make([]int, max(n+1, alphabet))

	// Round 0: counting sort by first character.
	for i := 0; i < n; i++ {
		cnt[src[i]]++
	}
	for i := 1; i < alphabet; i++ {
		cnt[i] += cnt[i-1]
	}
	for i := 0; i < n; i++ {
		cnt[src[i]]--
		p[cnt[src[i]]] = i
	}
	c[p[0]] = 0
	classes := 1
	for i := 1; i < n; i++ {
		if src[p[i]] != src[p[i-1]] {
			classes++
		}
		c[p[i]] = classes - 1
	}

	pn := make([]int, n)
	cn := make([]int, n)
	for h := 1; h < n && classes < n; h <<= 1 {
		// Sort by the second half: shifting the already-sorted order left by
		// h yields the order of second halves for free.
		for i := 0; i < n; i++ {
			pn[i] = p[i] - h
			if pn[i] < 0 {
				pn[i] += n
			}
		}
		// Stable counting sort by first-half class.
		for i := 0; i < classes; i++ {
			cnt[i] = 0
		}
		for i := 0; i < n; i++ {
			cnt[c[pn[i]]]++
		}
		for i := 1; i < classes; i++ {
			cnt[i] += cnt[i-1]
		}
		for i := n - 1; i >= 0; i-- {
			cnt[c[pn[i]]]--
			p[cnt[c[pn[i]]]] = pn[i]
		}
		// Recompute classes over (first-half, second-half) pairs.
		cn[p[0]] = 0
		classes = 1
		for i := 1; i < n; i++ {
			curA, curB := c[p[i]], c[(p[i]+h)%n]
			prevA, prevB := c[p[i-1]], c[(p[i-1]+h)%n]
			if curA != prevA || curB != prevB {
				classes++
			}
			cn[p[i]] = classes - 1
		}
		c, cn = cn, c
	}
	return p
}

// naiveTransform is the transform by definition: sort the rotations as
// strings, equal ones by start so that the chunk itself is the first of its
// equals, and read off the last column and the chunk's row.
func naiveTransform(src []byte) (last []byte, primary int) {
	n := len(src)
	doubled := append(bytes.Clone(src), src...)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if c := bytes.Compare(doubled[order[a]:order[a]+n], doubled[order[b]:order[b]+n]); c != 0 {
			return c < 0
		}
		return order[a] < order[b]
	})
	last = make([]byte, n)
	for i, r := range order {
		last[i] = doubled[r+n-1]
		if r == 0 {
			primary = i
		}
	}
	return last, primary
}

// naiveInverse is the inverse by definition: prepend the last column to the
// rows and sort them, as many times as the text is long, and read the row
// the text was said to be in. Equal rows are equal texts, so ties need no
// rule.
func naiveInverse(last []byte, primary int) []byte {
	rows := make([]string, len(last))
	for range last {
		for i, b := range last {
			rows[i] = string([]byte{b}) + rows[i]
		}
		sort.Strings(rows)
	}
	return []byte(rows[primary])
}

// TestInverseLanesAgree compares the four-lane walk, the one-lane walk and,
// where sorting strings is affordable, the inverse by definition, over
// groups of four chunks of each size; then the whole decoder over one to
// nine chunks with a short last one, where full groups take the four lanes
// and the rest of the block the one.
func TestInverseLanesAgree(t *testing.T) {
	corpus := corpusBlocks(5, 1, 9*40<<10)[0]
	power := bytes.Repeat([]byte("abcd"), lanes*40<<10/4) // chunks of 16 and 40 KiB are exact powers
	for _, size := range []int{1, 2, 3, 255, 16 << 10, 40 << 10} {
		for _, data := range [][]byte{corpus, power, bytes.Repeat([]byte{'z'}, lanes*size)} {
			var s scratch
			var four, one [lanes][]byte
			var row [lanes]uint32
			for g := range four {
				chunk := data[g*size:][:size]
				last, primary := Transform(chunk)
				s.lf[g], row[g] = lfTable(s.lf[g], last), uint32(primary)
				four[g], one[g] = make([]byte, size), make([]byte, size)
				walk(one[g], s.lf[g], row[g])
				if !bytes.Equal(one[g], chunk) {
					t.Fatalf("chunks of %d: the one-lane walk of chunk %d differs from the text", size, g)
				}
				if size <= 255 && !bytes.Equal(naiveInverse(last, primary), chunk) {
					t.Fatalf("chunks of %d: the inverse by sorting of chunk %d differs from the text", size, g)
				}
			}
			walk4(&four, &s.lf, row)
			for g := range four {
				if !bytes.Equal(four[g], one[g]) {
					t.Fatalf("chunks of %d: lane %d of the four-lane walk differs from the one-lane walk", size, g)
				}
			}
		}
		for chunks := 1; chunks <= 9; chunks++ {
			roundtrip(t, corpus[:chunks*size], size)
			roundtrip(t, corpus[:chunks*size-size/3], size) // a short last chunk
			roundtrip(t, power[:min(chunks*size, len(power))], size)
		}
	}
}

func checkAgainstNaive(t *testing.T, what string, src []byte) {
	t.Helper()
	wantLast, wantPrimary := naiveTransform(src)
	last, primary := Transform(src)
	if !bytes.Equal(last, wantLast) || primary != wantPrimary {
		t.Fatalf("%s (n=%d): last column or primary (%d, want %d) differs from the rotations sorted as strings: %q",
			what, len(src), primary, wantPrimary, src)
	}
}

// TestSortRotationsOracle compares the linear-time rotation sort, through
// Transform, with rotations sorted as strings: random texts over small
// alphabets (which stress ties), every text over one to four symbols up to
// a length the enumeration can afford, exact powers u^k and single-symbol
// texts (whose equal rotations exercise the primary-index rule), and
// lengths 1 to 3. Whole 16 KiB chunks of the benchmark corpus (half of them
// OIS, half XML) are compared with the doubling sorter, which is fast enough
// for them; their rotations are distinct, so the primary index has to agree
// too. TestCorpusByteIdentity covers the rest of the corpus by hash.
func TestSortRotationsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, rng.Intn(200)+1)
		alphabet := rng.Intn(4) + 1
		for i := range data {
			data[i] = byte(rng.Intn(1 << (alphabet * 2)))
		}
		checkAgainstNaive(t, "random", data)
		root := data[:rng.Intn(min(len(data), 12))+1]
		checkAgainstNaive(t, "power", bytes.Repeat(root, rng.Intn(9)+1))
	}
	for symbols := 1; symbols <= 4; symbols++ {
		for n := 1; n <= 12-2*symbols+2; n++ {
			data := make([]byte, n)
			for {
				checkAgainstNaive(t, "exhaustive", data)
				i := 0
				for ; i < n && int(data[i]) == symbols-1; i++ {
					data[i] = 0
				}
				if i == n {
					break
				}
				data[i]++
			}
		}
	}
	for _, n := range []int{1, 2, 3, 255, 256, 257, DefaultChunkSize} {
		checkAgainstNaive(t, "all-equal", bytes.Repeat([]byte{'z'}, n))
	}

	for b, block := range corpusBlocks(1, 8, 128<<10) {
		for off := 0; off < len(block); off += DefaultChunkSize {
			chunk := block[off : off+DefaultChunkSize]
			order := sortRotationsDoubling(chunk)
			last, primary := Transform(chunk)
			for i, r := range order {
				if want := chunk[(r+len(chunk)-1)%len(chunk)]; last[i] != want {
					t.Fatalf("block %d chunk at %d: last[%d] = %q, want %q", b, off, i, last[i], want)
				}
				if r == 0 && primary != i {
					t.Fatalf("block %d chunk at %d: primary = %d, want %d", b, off, primary, i)
				}
			}
		}
	}
}
