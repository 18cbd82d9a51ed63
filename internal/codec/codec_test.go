package codec

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"ccx/internal/arith"
)

var allMethods = []Method{None, Huffman, Arithmetic, LempelZiv, BurrowsWheeler}

// WithArithmetic returns the built-in registry plus arithmetic coding on its
// reserved identifier: the one registration a peer makes to speak method 2.
// It is exported for the package's external tests.
func WithArithmetic() *Registry {
	reg := NewRegistry()
	reg.Register(NewFuncCodec(Arithmetic, arith.Compress, arith.Decompress))
	return reg
}

func TestMethodString(t *testing.T) {
	want := map[Method]string{
		None: "none", Huffman: "huffman", Arithmetic: "arithmetic",
		LempelZiv: "lempel-ziv", BurrowsWheeler: "burrows-wheeler",
		Method(99): "custom(99)",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q want %q", m, m.String(), s)
		}
	}
}

func TestAllCodecsRoundtrip(t *testing.T) {
	data := bytes.Repeat([]byte("end to end data exchange using configurable compression; "), 300)
	reg := WithArithmetic()
	for _, m := range allMethods {
		c, err := reg.Get(m)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Compress(data)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		back, err := c.Decompress(out, len(data))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("%v: roundtrip mismatch", m)
		}
	}
}

func TestAllCodecsEmpty(t *testing.T) {
	reg := WithArithmetic()
	for _, m := range allMethods {
		c, err := reg.Get(m)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Compress(nil)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		back, err := c.Decompress(out, 0)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(back) != 0 {
			t.Fatalf("%v: got %d bytes", m, len(back))
		}
	}
}

func TestNoneCodecDoesNotAlias(t *testing.T) {
	src := []byte{1, 2, 3}
	out, err := Compress(None, src)
	if err != nil {
		t.Fatal(err)
	}
	out[0] = 99
	if src[0] != 1 {
		t.Fatal("None codec aliases its input")
	}
}

func TestNoneCodecLengthCheck(t *testing.T) {
	if _, err := Decompress(None, []byte{1, 2}, 3); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestUnknownMethod(t *testing.T) {
	if _, err := Compress(Method(200), []byte("x")); err == nil {
		t.Fatal("expected unknown-method error")
	}
	// Arithmetic's identifier is reserved, not built in.
	if _, err := Compress(Arithmetic, []byte("x")); err == nil {
		t.Fatal("arithmetic is built in")
	}
}

type xorCodec struct{ key byte }

func (c xorCodec) Method() Method { return FirstCustom }
func (c xorCodec) Compress(src []byte) ([]byte, error) {
	out := make([]byte, len(src))
	for i, b := range src {
		out[i] = b ^ c.key
	}
	return out, nil
}
func (c xorCodec) Decompress(src []byte, origLen int) ([]byte, error) {
	return c.Compress(src)
}

func TestRegistryCustomCodec(t *testing.T) {
	reg := NewRegistry()
	reg.Register(xorCodec{key: 0x5A})
	c, err := reg.Get(FirstCustom)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := c.Compress([]byte("hi"))
	back, _ := c.Decompress(out, 2)
	if string(back) != "hi" {
		t.Fatalf("got %q", back)
	}
	methods := reg.Methods()
	if len(methods) != 5 { // four built in, one custom
		t.Fatalf("Methods() = %v", methods)
	}
	for i := 1; i < len(methods); i++ {
		if methods[i-1] >= methods[i] {
			t.Fatal("Methods() not sorted")
		}
	}
}

func TestFrameRoundtripAllMethods(t *testing.T) {
	data := bytes.Repeat([]byte("framed block payload with repetition repetition; "), 100)
	reg := WithArithmetic()
	for _, m := range allMethods {
		var buf bytes.Buffer
		fw := NewFrameWriter(&buf, reg)
		info, err := fw.WriteBlock(m, data)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if info.Requested != m {
			t.Fatalf("%v: requested = %v", m, info.Requested)
		}
		fr := NewFrameReader(&buf, reg)
		got, rinfo, err := fr.ReadBlock()
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%v: payload mismatch", m)
		}
		if rinfo.Method != info.Method || rinfo.OrigLen != len(data) {
			t.Fatalf("%v: info mismatch: %+v vs %+v", m, rinfo, info)
		}
	}
}

func TestFrameFallbackOnExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	data := make([]byte, 4096)
	rng.Read(data)
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf, nil)
	info, err := fw.WriteBlock(Huffman, data) // random data: Huffman expands
	if err != nil {
		t.Fatal(err)
	}
	if !info.Fallback || info.Method != None || info.Requested != Huffman {
		t.Fatalf("expected fallback to raw, got %+v", info)
	}
	if info.CompLen != len(data) {
		t.Fatalf("fallback CompLen = %d", info.CompLen)
	}
	fr := NewFrameReader(&buf, nil)
	got, rinfo, err := fr.ReadBlock()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) || !rinfo.Fallback {
		t.Fatalf("fallback decode: %+v", rinfo)
	}
}

func TestFrameStream(t *testing.T) {
	// Multiple frames of mixed methods through one pipe.
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf, nil)
	blocks := [][]byte{
		bytes.Repeat([]byte("aaa"), 500),
		[]byte("short"),
		nil,
		bytes.Repeat([]byte("xyz123"), 1000),
	}
	methods := []Method{Huffman, None, LempelZiv, BurrowsWheeler}
	for i, b := range blocks {
		if _, err := fw.WriteBlock(methods[i], b); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf, nil)
	for i, want := range blocks {
		got, _, err := fr.ReadBlock()
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d mismatch", i)
		}
	}
	if _, _, err := fr.ReadBlock(); err != io.EOF {
		t.Fatalf("expected io.EOF at stream end, got %v", err)
	}
}

func TestFrameCorruption(t *testing.T) {
	data := bytes.Repeat([]byte("protected payload "), 200)
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf, nil)
	if _, err := fw.WriteBlock(LempelZiv, data); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		mut := append([]byte(nil), frame...)
		mut[0] = 0x00
		_, _, err := NewFrameReader(bytes.NewReader(mut), nil).ReadBlock()
		if err != ErrBadMagic {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		mut := append([]byte(nil), frame...)
		mut[2] = 9
		_, _, err := NewFrameReader(bytes.NewReader(mut), nil).ReadBlock()
		if err == nil {
			t.Fatal("expected version error")
		}
	})
	t.Run("payload bit flip", func(t *testing.T) {
		mut := append([]byte(nil), frame...)
		mut[len(mut)-1] ^= 0x01
		_, _, err := NewFrameReader(bytes.NewReader(mut), nil).ReadBlock()
		if err != ErrChecksum {
			t.Fatalf("got %v want ErrChecksum", err)
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for _, cut := range []int{1, 3, 6, len(frame) / 2, len(frame) - 1} {
			_, _, err := NewFrameReader(bytes.NewReader(frame[:cut]), nil).ReadBlock()
			if err == nil {
				t.Fatalf("cut %d: expected error", cut)
			}
			if err == io.EOF && cut > 0 {
				t.Fatalf("cut %d: mid-frame truncation must not be clean EOF", cut)
			}
		}
	})
}

func TestFrameSizeLimit(t *testing.T) {
	// hostileHeader builds a frame header claiming the given lengths; the
	// CRC and payload are deliberately absent because the size check must
	// reject the frame before reading (or allocating) anything after the
	// two uvarints.
	hostileHeader := func(origLen, compLen uint64) []byte {
		buf := []byte{magic0, magic1, FrameVersion, byte(None), 0}
		buf = binary.AppendUvarint(buf, origLen)
		return binary.AppendUvarint(buf, compLen)
	}
	cases := []struct {
		name             string
		origLen, compLen uint64
	}{
		{"origLen over limit", MaxFrameLen + 1, 0},
		{"compLen over limit", 0, MaxFrameLen + 1},
		{"both absurd", 1 << 34, 1 << 34},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := NewFrameReader(bytes.NewReader(hostileHeader(tc.origLen, tc.compLen)), nil).ReadBlock()
			if err != ErrFrameSize {
				t.Fatalf("got %v want ErrFrameSize", err)
			}
		})
	}
	t.Run("limit itself is allowed", func(t *testing.T) {
		// Exactly MaxFrameLen passes the bound; with no CRC bytes behind
		// it the reader then reports truncation, not ErrFrameSize.
		_, _, err := NewFrameReader(bytes.NewReader(hostileHeader(MaxFrameLen, 0)), nil).ReadBlock()
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("got %v want io.ErrUnexpectedEOF", err)
		}
	})
}

// The writer holds the reader's bound: a block one byte over MaxFrameLen is
// refused under any method and leaves dst as it was, and a block of
// exactly MaxFrameLen is written and read back.
func TestAppendFrameRefusesOversize(t *testing.T) {
	big := make([]byte, MaxFrameLen+1)
	for _, m := range []Method{None, BurrowsWheeler} {
		dst := []byte("keep")
		out, _, err := AppendFrameOpts(dst, nil, m, big, FrameOpts{})
		if err == nil {
			t.Fatalf("%v: block of MaxFrameLen+1 bytes accepted", m)
		}
		if string(out) != "keep" {
			t.Fatalf("%v: refused block changed dst to %d bytes", m, len(out))
		}
	}
	frame, _, err := AppendFrameOpts(nil, nil, None, big[:MaxFrameLen], FrameOpts{})
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := NewFrameReader(bytes.NewReader(frame), nil).ReadBlock()
	if err != nil || len(data) != MaxFrameLen {
		t.Fatalf("read back %d bytes, err %v", len(data), err)
	}
}

// TestAppendFrameHeader holds that a header plus its parts is the frame
// AppendFrameOpts writes for their concatenation, and that the header is
// refused where the frame would be.
func TestAppendFrameHeader(t *testing.T) {
	anno := AppendAnnoRecord(nil, AnnoKindEcho, []byte{3, 'c'})
	for _, opts := range []FrameOpts{{}, {Seq: 7, HasSeq: true, Anno: anno}} {
		for _, parts := range [][][]byte{nil, {[]byte("head")}, {[]byte("head"), nil, []byte("data")}} {
			hdr, err := AppendFrameHeader([]byte("keep"), opts, parts...)
			if err != nil {
				t.Fatal(err)
			}
			whole := bytes.Join(parts, nil)
			want, _, err := AppendFrameOpts([]byte("keep"), nil, None, whole, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := append(hdr, whole...); !bytes.Equal(got, want) {
				t.Fatalf("opts %+v parts %q: header+parts\n%x, frame\n%x", opts, parts, got, want)
			}
		}
	}
	half := make([]byte, MaxFrameLen/2+1)
	if _, err := AppendFrameHeader(nil, FrameOpts{}, half, half); err == nil {
		t.Fatal("parts of MaxFrameLen+2 bytes accepted")
	}
	if _, err := AppendFrameHeader(nil, FrameOpts{HasSeq: true}); err == nil {
		t.Fatal("sequence number 0 accepted")
	}
}

func TestBlockInfoRatio(t *testing.T) {
	if r := (BlockInfo{OrigLen: 100, CompLen: 25}).Ratio(); r != 0.25 {
		t.Fatalf("Ratio = %v", r)
	}
	if r := (BlockInfo{}).Ratio(); r != 1 {
		t.Fatalf("empty Ratio = %v", r)
	}
}

func TestQuickFrameRoundtrip(t *testing.T) {
	reg := WithArithmetic()
	f := func(data []byte, methodIdx uint8) bool {
		m := allMethods[int(methodIdx)%len(allMethods)]
		var buf bytes.Buffer
		fw := NewFrameWriter(&buf, reg)
		if _, err := fw.WriteBlock(m, data); err != nil {
			return false
		}
		got, _, err := NewFrameReader(&buf, reg).ReadBlock()
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeMethodUpgrade is §3.2's evolution story: deploy an improved
// (order-1) arithmetic coder at runtime, either under a new identifier or on
// arithmetic's reserved one, and verify frames decode transparently.
func TestRuntimeMethodUpgrade(t *testing.T) {
	text := bytes.Repeat([]byte("an improved compression algorithm arrives at runtime; "), 400)

	// Under a fresh identifier.
	reg := NewRegistry()
	reg.Register(NewFuncCodec(FirstCustom+1, arith.CompressOrder1, arith.DecompressOrder1))
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf, reg)
	infoNew, err := fw.WriteBlock(FirstCustom+1, text)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := NewFrameReader(&buf, reg).ReadBlock()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, text) {
		t.Fatal("upgraded codec roundtrip failed")
	}

	// The upgrade must actually be an improvement over order-0.
	old, err := arith.Compress(text)
	if err != nil {
		t.Fatal(err)
	}
	if infoNew.CompLen >= len(old) {
		t.Fatalf("order-1 (%d) should beat order-0 (%d) on text", infoNew.CompLen, len(old))
	}

	// Registering it under the reserved identifier upgrades both ends in
	// lock-step.
	shadow := NewRegistry()
	shadow.Register(NewFuncCodec(Arithmetic, arith.CompressOrder1, arith.DecompressOrder1))
	buf.Reset()
	fws := NewFrameWriter(&buf, shadow)
	if _, err := fws.WriteBlock(Arithmetic, text); err != nil {
		t.Fatal(err)
	}
	got, info, err := NewFrameReader(&buf, shadow).ReadBlock()
	if err != nil || !bytes.Equal(got, text) {
		t.Fatalf("shadowed decode: %v", err)
	}
	if info.Method != Arithmetic {
		t.Fatalf("method = %v", info.Method)
	}
}
