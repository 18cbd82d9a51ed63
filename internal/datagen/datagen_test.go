package datagen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"ccx/internal/codec"
	"ccx/internal/sampling"
)

func TestMolecularDeterministic(t *testing.T) {
	a := Molecular(100, 7)
	b := Molecular(100, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical atoms")
		}
	}
	c := Molecular(100, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical atoms")
	}
}

func TestMolecularTypeAlphabet(t *testing.T) {
	atoms := Molecular(10000, 1)
	var counts [256]int
	for _, a := range atoms {
		counts[a.Type]++
	}
	for typ := len(elementWeights); typ < 256; typ++ {
		if counts[typ] != 0 {
			t.Fatalf("unexpected atom type %d", typ)
		}
	}
	// The most common element must dominate (skewed distribution).
	if counts[0] < counts[len(elementWeights)-1]*3 {
		t.Fatalf("type distribution not skewed: %v", counts[:len(elementWeights)])
	}
}

func TestMolecularBatchSize(t *testing.T) {
	atoms := Molecular(50, 2)
	batch, err := MolecularBatch(atoms)
	if err != nil {
		t.Fatal(err)
	}
	want := 50 * MolecularFormat().RecordSize()
	if len(batch) != want {
		t.Fatalf("batch = %d bytes, want %d", len(batch), want)
	}
}

// TestMolecularColumnCompressibility verifies the Figure 6 structure: type
// column ≪ velocity column < coordinate column in compressed ratio.
func TestMolecularColumnCompressibility(t *testing.T) {
	atoms := Molecular(20000, 3)
	types, vels, coords, err := MolecularColumns(atoms)
	if err != nil {
		t.Fatal(err)
	}
	ratio := func(data []byte) float64 {
		out, err := codec.Compress(codec.LempelZiv, data)
		if err != nil {
			t.Fatal(err)
		}
		return float64(len(out)) / float64(len(data))
	}
	rt, rv, rc := ratio(types), ratio(vels), ratio(coords)
	t.Logf("LZ ratios: types=%.3f velocities=%.3f coords=%.3f", rt, rv, rc)
	if rt > 0.5 {
		t.Errorf("type column ratio %.3f: should be highly compressible", rt)
	}
	if rc < 0.8 {
		t.Errorf("coordinate column ratio %.3f: should be nearly incompressible", rc)
	}
	if !(rt < rv && rv < rc) {
		t.Errorf("Figure 6 ordering violated: %.3f, %.3f, %.3f", rt, rv, rc)
	}
}

func TestOISTransactionsShape(t *testing.T) {
	data := OISTransactions(100000, 0.8, 5)
	if len(data) != 100000 {
		t.Fatalf("size = %d", len(data))
	}
	if !bytes.Contains(data, []byte("TXN")) || !bytes.Contains(data, []byte("flight=")) {
		t.Fatal("transaction structure missing")
	}
	// Deterministic.
	if !bytes.Equal(data, OISTransactions(100000, 0.8, 5)) {
		t.Fatal("not deterministic")
	}
}

// TestOISHighRepetition verifies the commercial dataset is LZ-friendly (the
// paper: "This data set has a high rate of strings repetitions, so the best
// methods to be used were Lempel-Ziv and Burrows-Wheeler").
func TestOISHighRepetition(t *testing.T) {
	data := OISTransactions(128*1024, 0.9, 11)
	rep := sampling.RepetitionScore(data)
	if rep < 0.5 {
		t.Fatalf("repetition score %.3f, want > 0.5", rep)
	}
	lzOut, _ := codec.Compress(codec.LempelZiv, data)
	hufOut, _ := codec.Compress(codec.Huffman, data)
	if len(lzOut) >= len(hufOut) {
		t.Fatalf("LZ (%d) should beat Huffman (%d) on repetitive commercial data", len(lzOut), len(hufOut))
	}
}

func TestOISRepetitionKnob(t *testing.T) {
	low := OISTransactions(64*1024, 0.0, 1)
	high := OISTransactions(64*1024, 0.95, 1)
	lzLow, _ := codec.Compress(codec.LempelZiv, low)
	lzHigh, _ := codec.Compress(codec.LempelZiv, high)
	if len(lzHigh) >= len(lzLow) {
		t.Fatalf("higher repetition should compress better: %d vs %d", len(lzHigh), len(lzLow))
	}
}

func TestXMLDocuments(t *testing.T) {
	data := XMLDocuments(50000, 4)
	if len(data) != 50000 {
		t.Fatalf("size = %d", len(data))
	}
	if !bytes.Contains(data, []byte("<txn")) {
		t.Fatal("missing XML structure")
	}
	out, _ := codec.Compress(codec.BurrowsWheeler, data)
	if ratio := float64(len(out)) / float64(len(data)); ratio > 0.25 {
		t.Fatalf("XML should be highly compressible, ratio %.3f", ratio)
	}
}

// TestGeneratorsByteIdentity pins the two text generators to the SHA-256 of
// what they produced while each record was still a fmt call (commit fe65f7f):
// every ratio in EXPERIMENTS and the benchmark's corpus are made of these
// bytes, so a faster generator is the same bytes or it is a new data set.
// The small cases cut a record short, end on a forced flight draw and never
// reuse one.
func TestGeneratorsByteIdentity(t *testing.T) {
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"OIS 4 MiB", OISTransactions(4<<20, 0.9, 1), "d619f31041ae3bde02db1d02f4f2ff076e476582db3a0584ca61f9720c81a96e"},
		{"XML 4 MiB", XMLDocuments(4<<20, 2), "973752cb523dea2c6bea6354d75df1b637c7f721e1ee548b5e399cbcbf90f9f8"},
		{"OIS 1 MiB", OISTransactions(1<<20, 0.9, 1), "4894307e127d2e282c82ab6d1f6b96849bf5b1cf453adbfb2ff628fa36e62e50"},
		{"XML 1 MiB", XMLDocuments(1<<20, 2), "510adfafa74211e368d823ae70a2388f9d717c305af3f1fdb4d20d170cf53ea7"},
		{"OIS 77777, repetition 0.3", OISTransactions(77777, 0.3, -9), "6f3128947e4c117e9bd60fe6a3fc3410159e6bb05576d84c64d784a2eb5e8b5e"},
		{"XML 77777", XMLDocuments(77777, -9), "b46c096da4ffb792c0f615f238e94fa0a2b254d34d9fd7622a0c70a06df28451"},
		{"OIS 1000, repetition 0", OISTransactions(1000, 0, 5), "3c4e408095d38390d79a5cbecc092a6daba6e28557e881863a87342935b4a0cb"},
		{"XML 1", XMLDocuments(1, 4), "dabd3aff769f07eb2965401eb029974ebba3407afd02b26ddb564ea5f8efae72"},
	} {
		sum := sha256.Sum256(c.data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s hashes to %s, want %s", c.name, got, c.want)
		}
	}
}

func TestLowEntropy(t *testing.T) {
	data := LowEntropy(64*1024, 4, 9)
	h := sampling.Entropy(data)
	if h > 2.01 || h < 1.9 {
		t.Fatalf("entropy of 4-symbol uniform data = %.3f, want ≈2", h)
	}
	if got := LowEntropy(10, 0, 1); len(got) != 10 {
		t.Fatal("alphabet clamp failed")
	}
}

func TestRandomIncompressible(t *testing.T) {
	data := Random(64*1024, 10)
	out, _ := codec.Compress(codec.LempelZiv, data)
	if len(out) < len(data) {
		t.Fatalf("random data compressed from %d to %d", len(data), len(out))
	}
}

// BenchmarkGenerators times the two text generators at the size a benchmark
// set-up asks of them.
func BenchmarkGenerators(b *testing.B) {
	b.Run("OIS4M", func(b *testing.B) {
		b.SetBytes(4 << 20)
		for i := 0; i < b.N; i++ {
			OISTransactions(4<<20, 0.9, 1)
		}
	})
	b.Run("XML4M", func(b *testing.B) {
		b.SetBytes(4 << 20)
		for i := 0; i < b.N; i++ {
			XMLDocuments(4<<20, 2)
		}
	})
}
