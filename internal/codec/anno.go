package codec

import (
	"encoding/binary"
	"fmt"
)

// Annotation TLV kinds — the one table. A frame's annotation block is a
// sequence of records, kind(1) length(uvarint) body(length), and readers
// skip kinds they do not understand, so a new fact is a new kind here, not
// a new frame layout.
const (
	// AnnoKindTrace carries a distributed-trace context (internal/tracing
	// owns the body: trace id, origin wall clock, origin monotonic clock,
	// all uvarints).
	AnnoKindTrace = 0x01
	// AnnoKindClose carries a session-close reason: one CloseReason byte
	// followed by optional human-readable text. The broker stamps it into a
	// zero-length frame written right before it severs an evicted
	// subscriber, so the client can tell "evicted: overload" apart from a
	// generic transport error (and back off accordingly).
	AnnoKindClose = 0x02
	// AnnoKindAck carries an acknowledgement (internal/core owns it). An
	// empty body asks the receiver to acknowledge what it reads; a body is
	// the receiver's answer, the uvarint count of stream bytes it has
	// consumed. Both ride zero-length unsequenced frames.
	AnnoKindAck = 0x03
	// AnnoKindEcho carries an ECho bridge message header (internal/echo
	// owns it): the message-type byte followed by the channel name. The
	// frame's payload is the message body.
	AnnoKindEcho = 0x04
)

// AppendAnnoRecord appends one TLV record to the annotation block dst.
func AppendAnnoRecord(dst []byte, kind byte, body []byte) []byte {
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...)
}

// AnnoRecord walks the annotation block anno and returns the body of its
// first record of the given kind, skipping other kinds. ok is false when
// the block holds none or is malformed (the frame CRC already covered the
// bytes, so malformed means an incompatible writer, not line damage).
func AnnoRecord(anno []byte, kind byte) (body []byte, ok bool) {
	for len(anno) >= 2 {
		k := anno[0]
		l, n := binary.Uvarint(anno[1:])
		if n <= 0 || uint64(len(anno)-1-n) < l {
			return nil, false
		}
		body, anno = anno[1+n:1+n+int(l)], anno[1+n+int(l):]
		if k == kind {
			return body, true
		}
	}
	return nil, false
}

// CloseReason codes the broker's motive for severing a session.
type CloseReason byte

const (
	// CloseOverload is a slow-subscriber eviction: the outbound queue
	// overflowed under the Evict policy, or the overload governor shed the
	// session to relieve memory pressure.
	CloseOverload CloseReason = 1
	// CloseSlowConsumer is a circuit-breaker trip: the subscriber's queue
	// wait stayed over threshold for the whole breaker window.
	CloseSlowConsumer CloseReason = 2
)

// String renders the reason the way clients surface it ("evicted: <reason>").
func (r CloseReason) String() string {
	switch r {
	case CloseOverload:
		return "overload"
	case CloseSlowConsumer:
		return "slow consumer"
	}
	return fmt.Sprintf("close(%d)", byte(r))
}

// AppendCloseAnno appends a close-reason TLV record to dst. msg is
// truncated so the record always fits MaxAnnoLen alongside nothing else.
func AppendCloseAnno(dst []byte, reason CloseReason, msg string) []byte {
	const maxMsg = 128
	if len(msg) > maxMsg {
		msg = msg[:maxMsg]
	}
	return AppendAnnoRecord(dst, AnnoKindClose, append([]byte{byte(reason)}, msg...))
}

// ParseCloseAnno scans a frame annotation block for a close-reason record,
// skipping unknown TLV kinds. ok is false when the block carries none or
// is malformed (the frame CRC already covered the bytes, so malformed here
// means an incompatible writer — treat the frame as a plain heartbeat).
func ParseCloseAnno(anno []byte) (reason CloseReason, msg string, ok bool) {
	body, ok := AnnoRecord(anno, AnnoKindClose)
	if !ok || len(body) < 1 {
		return 0, "", false
	}
	return CloseReason(body[0]), string(body[1:]), true
}
