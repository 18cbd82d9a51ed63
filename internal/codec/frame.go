package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"time"
)

// Frame layout (see DESIGN.md §5) — the only one written or read:
//
//	magic(2) version(1)=4 method(1) flags(1)
//	origLen(uvarint) compLen(uvarint) seq(uvarint)
//	annoLen(uvarint) anno(annoLen) crc32c(4) payload(compLen)
//
// The CRC (Castagnoli) covers every header byte before it and the payload,
// so a flipped method byte, length varint, flag, sequence number or
// annotation byte is caught exactly like a flipped payload byte.
//
// seq is the per-channel block sequence number stamped by transports that
// offer replay/resume (the fan-out broker). Sequence numbers start at 1; an
// unsequenced frame carries 0 and reads back as HasSeq=false.
//
// anno is an opaque annotation block of TLV records (see anno.go for the
// kind table); readers surface the raw bytes as BlockInfo.Anno and skip
// kinds they do not understand. The format extends by method identifier
// and by annotation kind, never by another layout.
const (
	magic0 = 0xEC // "ECho"-flavoured magic
	magic1 = 0x40
	// FrameVersion is the wire version byte. Any other value is
	// ErrBadVersion, and Resync does not stop on it.
	FrameVersion = 4
	// MaxAnnoLen bounds a frame's annotation block. Annotations are
	// metadata (a stamped trace context is ~30 bytes), so the cap exists
	// only to keep a hostile annoLen varint from driving allocations.
	MaxAnnoLen = 1024
	// MaxFrameLen bounds a single frame's original and compressed payload
	// lengths (16 MiB), keeping hostile headers from driving huge
	// allocations. It is exported so transports (the fan-out broker, the
	// TCP tools) can validate configured block and event sizes against the
	// wire format's hard limit before streaming.
	MaxFrameLen = 16 << 20
)

// Frame flags.
const (
	// FlagFallback records that the sender requested a compressing method
	// but the payload expanded, so the block was sent raw instead.
	FlagFallback = 1 << 0
)

// Frame errors. Every way a frame can be damaged in transit — bad magic,
// unknown version, out-of-bounds lengths, checksum mismatch, or a payload
// the named codec rejects — satisfies errors.Is(err, ErrCorruptFrame), so
// consumers distinguish "this frame is poison, resync or drop it" from I/O
// errors (truncation is io.ErrUnexpectedEOF: the stream ended, there is
// nothing to resync onto).
var (
	// ErrCorruptFrame is the umbrella error for frames damaged in transit.
	ErrCorruptFrame = errors.New("codec: corrupt frame")

	ErrBadMagic   = fmt.Errorf("%w: bad frame magic", ErrCorruptFrame)
	ErrBadVersion = fmt.Errorf("%w: unsupported frame version", ErrCorruptFrame)
	ErrChecksum   = fmt.Errorf("%w: frame checksum mismatch", ErrCorruptFrame)
	ErrFrameSize  = fmt.Errorf("%w: frame length out of bounds", ErrCorruptFrame)
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// BlockInfo describes one decoded frame.
type BlockInfo struct {
	// Method is the compression method actually used on the wire (after any
	// expansion fallback).
	Method Method
	// Requested is the method the sender asked for. It differs from Method
	// only when FlagFallback is set.
	Requested Method
	// OrigLen and CompLen are the block's original and on-wire payload
	// sizes in bytes.
	OrigLen, CompLen int
	// Fallback reports whether the block fell back to raw transport because
	// compression expanded it.
	Fallback bool
	// Seq is the frame's per-channel block sequence number; HasSeq reports
	// whether it carried one (sequence numbers start at 1, the wire's 0
	// means unsequenced).
	Seq    uint64
	HasSeq bool
	// Anno holds the frame's raw annotation bytes, nil when it carried
	// none. The slice is a copy owned by the caller: it stays valid after
	// the next ReadBlock. Look records up with AnnoRecord.
	Anno []byte
	// DecodeTime is the CPU time FrameReader.ReadBlock spent decompressing
	// the payload (network wait excluded) — the decode-latency sample the
	// telemetry layer histograms. Zero for frames produced by writers.
	DecodeTime time.Duration
}

// Ratio returns CompLen/OrigLen, the fraction of the original size that
// crossed the wire (1 for empty blocks).
func (b BlockInfo) Ratio() float64 {
	if b.OrigLen == 0 {
		return 1
	}
	return float64(b.CompLen) / float64(b.OrigLen)
}

// A FrameWriter compresses blocks and writes them as self-describing frames.
type FrameWriter struct {
	w   io.Writer
	reg *Registry
	hdr []byte
}

// NewFrameWriter returns a FrameWriter using the default registry; pass a
// non-nil reg to use custom codecs.
func NewFrameWriter(w io.Writer, reg *Registry) *FrameWriter {
	if reg == nil {
		reg = defaultRegistry
	}
	return &FrameWriter{w: w, reg: reg, hdr: make([]byte, 0, 32)}
}

// FrameOpts carries a frame's optional header fields; the zero value is an
// unsequenced frame with no annotation.
type FrameOpts struct {
	// Seq is the block's sequence number, written when HasSeq is set (and
	// then at least 1: the wire's 0 means unsequenced).
	Seq    uint64
	HasSeq bool
	// Anno is an opaque annotation block (at most MaxAnnoLen bytes),
	// CRC-covered like the rest of the header. Writers stamp TLV records
	// here (AppendAnnoRecord).
	Anno []byte
}

// AppendFrameOpts compresses data with the requested method from reg (nil =
// default registry) and appends one complete frame to dst. It and
// AppendFrameHeader share the one header writer. It refuses a block longer than MaxFrameLen,
// which no FrameReader would accept. If the compressed payload is not smaller
// than the original, the block is sent raw and flagged (the paper's
// selector already avoids such blocks, but the wire format guarantees we
// never expand traffic).
func AppendFrameOpts(dst []byte, reg *Registry, m Method, data []byte, opts FrameOpts) ([]byte, BlockInfo, error) {
	if reg == nil {
		reg = defaultRegistry
	}
	info := BlockInfo{Method: m, Requested: m, OrigLen: len(data)}
	if opts.HasSeq {
		info.Seq, info.HasSeq = opts.Seq, true
	}
	if err := checkFrame(len(data), opts); err != nil {
		return dst, info, err
	}
	if len(opts.Anno) > 0 {
		info.Anno = opts.Anno
	}
	c, err := reg.Get(m)
	if err != nil {
		return dst, info, err
	}
	var payload []byte
	flags := byte(0)
	if _, raw := c.(rawCodec); raw {
		// The genuine raw codec copies src only to satisfy the Codec
		// aliasing contract; here the payload is immediately copied into the
		// frame, so the block serves as the payload directly and the
		// intermediate allocation disappears.
		payload = data
	} else {
		payload, err = c.Compress(data)
		if err != nil {
			return dst, info, fmt.Errorf("compress %v: %w", m, err)
		}
		if m != None && len(payload) >= len(data) {
			payload = data
			info.Method = None
			info.Fallback = true
			flags |= FlagFallback
		}
	}
	info.CompLen = len(payload)

	dst = appendHeader(dst, info.Method, flags, len(data), opts, payload)
	return append(dst, payload...), info, nil
}

// AppendFrameHeader appends the header, CRC included, of a method-None
// frame whose payload is the concatenation of parts; the caller writes the
// parts right behind it. The header and the parts are byte for byte the
// frame AppendFrameOpts writes for their concatenation with method None, so
// a transport can frame a payload it holds in pieces without copying it.
func AppendFrameHeader(dst []byte, opts FrameOpts, parts ...[]byte) ([]byte, error) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if err := checkFrame(n, opts); err != nil {
		return dst, err
	}
	return appendHeader(dst, None, 0, n, opts, parts...), nil
}

// checkFrame refuses what no FrameReader would accept: a payload of n
// bytes above MaxFrameLen, an annotation above MaxAnnoLen, or sequence
// number 0.
func checkFrame(n int, opts FrameOpts) error {
	if opts.HasSeq && opts.Seq == 0 {
		return errors.New("codec: sequence numbers start at 1")
	}
	if n > MaxFrameLen {
		return fmt.Errorf("codec: block of %d bytes exceeds MaxFrameLen %d", n, MaxFrameLen)
	}
	if len(opts.Anno) > MaxAnnoLen {
		return fmt.Errorf("codec: annotation too long (%d > %d)", len(opts.Anno), MaxAnnoLen)
	}
	return nil
}

// appendHeader appends the header, CRC included, of a frame whose payload
// is the concatenation of parts.
func appendHeader(dst []byte, m Method, flags byte, origLen int, opts FrameOpts, parts ...[]byte) []byte {
	compLen, seq := 0, uint64(0)
	for _, p := range parts {
		compLen += len(p)
	}
	if opts.HasSeq {
		seq = opts.Seq
	}
	base := len(dst)
	dst = append(dst, magic0, magic1, FrameVersion, byte(m), flags)
	dst = binary.AppendUvarint(dst, uint64(origLen))
	dst = binary.AppendUvarint(dst, uint64(compLen))
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(opts.Anno)))
	dst = append(dst, opts.Anno...)
	crc := crc32.Update(0, castagnoli, dst[base:]) // header…
	for _, p := range parts {
		crc = crc32.Update(crc, castagnoli, p) // …then payload
	}
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// WriteBlock compresses data with the requested method and writes one
// unsequenced frame (see AppendFrameOpts for fallback semantics).
func (fw *FrameWriter) WriteBlock(m Method, data []byte) (BlockInfo, error) {
	frame, info, err := AppendFrameOpts(fw.hdr[:0], fw.reg, m, data, FrameOpts{})
	fw.hdr = frame[:0]
	if err != nil {
		return info, err
	}
	if _, err := fw.w.Write(frame); err != nil {
		return info, err
	}
	return info, nil
}

// A FrameReader reads frames and decompresses their payloads. After a
// corrupt frame (errors.Is(err, ErrCorruptFrame)) the reader is positioned
// past the damaged bytes; call Resync to scan for the next frame boundary
// and keep decoding the survivors. A frame costs two or three exact-size
// reads, none past its last byte (DESIGN.md §5), so the reader needs no
// read-ahead buffer and leaves the next frame in the stream.
type FrameReader struct {
	r       io.Reader
	reg     *Registry
	buf     []byte // header tail + payload scratch, reused across frames
	pending []byte // bytes pushed back by Resync, consumed before r
	hdr     []byte // raw header bytes of the frame attempt in progress
	payOff  int    // where a failed attempt's payload starts in buf
	payLen  int    // payload bytes of a failed attempt retained in buf
}

// minHeader is the shortest frame header: the five fixed bytes, four
// one-byte uvarints and the CRC. Every frame has at least that many, so the
// first read of a frame never takes a byte of the next one.
const minHeader = 5 + 4 + 4

// resyncChunk is how much one Resync read asks the stream for.
const resyncChunk = 4 << 10

// NewFrameReader returns a FrameReader using the default registry; pass a
// non-nil reg to use custom codecs.
func NewFrameReader(r io.Reader, reg *Registry) *FrameReader {
	if reg == nil {
		reg = defaultRegistry
	}
	return &FrameReader{r: r, reg: reg}
}

// readFull fills p from the pushback buffer first, then the stream, and
// returns how many bytes arrived. Like io.ReadFull it returns io.EOF only
// when nothing was read at all.
func (fr *FrameReader) readFull(p []byte) (int, error) {
	n := copy(p, fr.pending)
	fr.pending = fr.pending[n:]
	if n == len(p) {
		return n, nil
	}
	m, err := io.ReadFull(fr.r, p[n:])
	if err == io.EOF && n > 0 {
		err = io.ErrUnexpectedEOF
	}
	return n + m, err
}

// fill appends the next n bytes to fr.hdr, keeping whatever arrived when the
// read falls short.
func (fr *FrameReader) fill(n int) error {
	h := len(fr.hdr)
	fr.hdr = slices.Grow(fr.hdr, n)[:h+n]
	got, err := fr.readFull(fr.hdr[h:])
	fr.hdr = fr.hdr[:h+got]
	return err
}

// ReadBlock reads and decodes the next frame. It returns io.EOF cleanly at
// a frame boundary, io.ErrUnexpectedEOF on mid-frame truncation, and an
// error satisfying errors.Is(err, ErrCorruptFrame) on in-frame damage. The
// returned block is the caller's own and stays valid across later calls.
func (fr *FrameReader) ReadBlock() ([]byte, BlockInfo, error) {
	return fr.readBlock(false)
}

// ReadBlockBorrowed is ReadBlock for a caller that is done with each block
// before it asks for the next (core.Reader copies into its caller's buffer):
// the block of a genuine raw frame is the reader's payload scratch itself,
// valid only until the next ReadBlock, ReadBlockBorrowed or Resync, which
// saves the block-sized copy per frame that dominates the receive path while
// the selector sends raw. Every other frame decodes exactly as in ReadBlock.
func (fr *FrameReader) ReadBlockBorrowed() ([]byte, BlockInfo, error) {
	return fr.readBlock(true)
}

func (fr *FrameReader) readBlock(borrow bool) ([]byte, BlockInfo, error) {
	var info BlockInfo
	fr.hdr = fr.hdr[:0]
	fr.payLen = 0
	// Whatever bytes arrive are checked before a short read is reported,
	// so each damaged header fails on the same field it would byte by byte.
	err := fr.fill(minHeader)
	if len(fr.hdr) < 5 {
		return nil, info, err // io.EOF only at a frame boundary; cut short is io.ErrUnexpectedEOF
	}
	if fr.hdr[0] != magic0 || fr.hdr[1] != magic1 {
		return nil, info, ErrBadMagic
	}
	if fr.hdr[2] != FrameVersion {
		return nil, info, fmt.Errorf("%w: %d", ErrBadVersion, fr.hdr[2])
	}
	info.Method = Method(fr.hdr[3])
	info.Requested = info.Method
	info.Fallback = fr.hdr[4]&FlagFallback != 0
	var v [4]uint64 // origLen, compLen, seq, annoLen
	off := 5
	for i := range v {
		for {
			x, n := binary.Uvarint(fr.hdr[off:min(len(fr.hdr), off+binary.MaxVarintLen64)])
			if n > 0 {
				v[i], off = x, off+n
				break
			}
			if n < 0 || len(fr.hdr)-off >= binary.MaxVarintLen64 {
				// Every byte arrived, so the value is at fault, not the stream.
				return nil, info, fmt.Errorf("%w: uvarint overflow", ErrCorruptFrame)
			}
			if err != nil {
				return nil, info, unexpectedEOF(err)
			}
			// Cut short: read the least the rest of the header can be, one
			// more byte of this uvarint, one per field left and the CRC.
			err = fr.fill(1 + len(v) - 1 - i + 4)
		}
		if i == 1 && (v[0] > MaxFrameLen || v[1] > MaxFrameLen) {
			return nil, info, ErrFrameSize
		}
	}
	info.OrigLen, info.CompLen = int(v[0]), int(v[1])
	info.Seq, info.HasSeq = v[2], v[2] != 0
	if v[3] > MaxAnnoLen {
		return nil, info, ErrFrameSize
	}
	if err != nil { // a short read always leaves the CRC unread
		return nil, info, unexpectedEOF(err)
	}
	// The rest of the annotation and CRC, then the payload, in one read; the
	// header part joins fr.hdr for the CRC and for Resync.
	tail := off + int(v[3]) + 4 - len(fr.hdr)
	if cap(fr.buf) < tail+info.CompLen {
		fr.buf = make([]byte, tail+info.CompLen)
	}
	if _, err := fr.readFull(fr.buf[:tail+info.CompLen]); err != nil {
		return nil, info, unexpectedEOF(err)
	}
	fr.hdr = append(fr.hdr, fr.buf[:tail]...)
	payload := fr.buf[tail : tail+info.CompLen]
	fr.payOff, fr.payLen = tail, info.CompLen
	if v[3] > 0 {
		// Copied out: fr.hdr is scratch reused by the next ReadBlock,
		// but BlockInfo.Anno must outlive it.
		info.Anno = append([]byte(nil), fr.hdr[off:off+int(v[3])]...)
	}
	// The CRC covers every header byte before it, then the payload.
	crcAt := len(fr.hdr) - 4
	crc := crc32.Update(crc32.Update(0, castagnoli, fr.hdr[:crcAt]), castagnoli, payload)
	if crc != binary.LittleEndian.Uint32(fr.hdr[crcAt:]) {
		return nil, info, ErrChecksum
	}
	c, err := fr.reg.Get(info.Method)
	if err != nil {
		// A damaged method byte and a genuinely unregistered codec are
		// indistinguishable on the wire; both poison only this frame.
		return nil, info, fmt.Errorf("%w: %v", ErrCorruptFrame, err)
	}
	start := time.Now()
	var data []byte
	if _, raw := c.(rawCodec); raw && borrow {
		data, err = payload, rawLenCheck(len(payload), info.OrigLen)
	} else {
		data, err = c.Decompress(payload, info.OrigLen)
	}
	info.DecodeTime = time.Since(start)
	if err != nil {
		return nil, info, fmt.Errorf("%w: decompress %v: %w", ErrCorruptFrame, info.Method, err)
	}
	fr.hdr = fr.hdr[:0]
	fr.payLen = 0
	return data, info, nil
}

// Resync abandons the current (corrupt) frame and scans forward for the
// next plausible frame boundary — first through the bytes the failed
// attempt already consumed (a bogus compLen routinely swallows the start of
// the next healthy frame), then through the live stream. A boundary is the
// magic pair followed by FrameVersion: checking the version byte cuts most
// false matches inside compressed payloads, and a false positive just
// yields another ErrCorruptFrame and another Resync, each advancing past
// the bogus match. On success the next ReadBlock starts at the recovered
// boundary. It returns io.EOF when the stream ends without another one.
func (fr *FrameReader) Resync() error {
	// Everything consumed by the failed attempt, minus its first magic byte
	// (rescanning from index 0 would re-sync onto the same corrupt frame),
	// goes back in front of the stream.
	back := make([]byte, 0, len(fr.hdr)+fr.payLen+len(fr.pending))
	if len(fr.hdr) > 1 {
		back = append(back, fr.hdr[1:]...)
	}
	back = append(back, fr.buf[fr.payOff:fr.payOff+fr.payLen]...)
	fr.pending = append(back, fr.pending...)
	fr.hdr = fr.hdr[:0]
	fr.payLen = 0

	// Scan the pushed-back bytes, then one stream Read's worth at a time;
	// whatever follows the boundary stays pending for the next ReadBlock.
	var win [3]byte // the zero bytes it starts with match no boundary
	var chunk []byte
	var err error
	for {
		for i, b := range fr.pending {
			win[0], win[1], win[2] = win[1], win[2], b
			if win == [3]byte{magic0, magic1, FrameVersion} {
				fr.pending = append(win[:len(win):len(win)], fr.pending[i+1:]...)
				return nil
			}
		}
		fr.pending = nil
		if err != nil {
			return err
		}
		if chunk == nil {
			chunk = make([]byte, resyncChunk)
		}
		var n int
		n, err = fr.r.Read(chunk)
		fr.pending = chunk[:n]
	}
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
