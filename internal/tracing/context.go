package tracing

import (
	"encoding/binary"

	"ccx/internal/codec"
)

// Context is the trace context a publisher stamps into a frame
// annotation and every downstream hop copies forward: the trace id plus
// the origin's wall and monotonic clocks at stamp time. The zero Context
// means "unsampled".
type Context struct {
	Trace uint64
	// WallNs is the origin's wall clock (Unix ns) at stamp time — the
	// trace epoch all hops' spans are measured against after skew
	// correction.
	WallNs int64
	// MonoNs is the origin's monotonic clock at stamp time (ns since the
	// origin process's tracer start). Wall clocks can step mid-trace;
	// origin-side durations derived from MonoNs cannot.
	MonoNs int64
}

// Valid reports whether the context was stamped (trace ids are never 0).
func (c Context) Valid() bool { return c.Trace != 0 }

// AppendAnno appends the context as one TLV record to dst, returning the
// extended slice — the bytes that go inside a frame's annotation block.
func (c Context) AppendAnno(dst []byte) []byte {
	var body [3 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(body[:], c.Trace)
	n += binary.PutUvarint(body[n:], uint64(c.WallNs))
	n += binary.PutUvarint(body[n:], uint64(c.MonoNs))
	return codec.AppendAnnoRecord(dst, codec.AnnoKindTrace, body[:n])
}

// ParseAnno scans a frame annotation block for a trace context,
// skipping unknown TLV kinds. It returns the zero Context (Valid() false)
// when the block carries none or is malformed — annotation damage is
// already caught by the frame CRC, so a parse failure here means an
// incompatible writer, and the block simply goes untraced.
func ParseAnno(anno []byte) Context {
	body, ok := codec.AnnoRecord(anno, codec.AnnoKindTrace)
	if !ok {
		return Context{}
	}
	var c Context
	var k int
	if c.Trace, k = binary.Uvarint(body); k <= 0 {
		return Context{}
	}
	body = body[k:]
	wall, k := binary.Uvarint(body)
	if k <= 0 {
		return Context{}
	}
	body = body[k:]
	mono, k := binary.Uvarint(body)
	if k <= 0 {
		return Context{}
	}
	c.WallNs, c.MonoNs = int64(wall), int64(mono)
	return c
}
