package broker

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"ccx/internal/codec"
	"ccx/internal/selector"
)

// Wire protocol.
//
// A client opens a TCP connection and sends one hello:
//
//	magic "CCB" + version(1)
//	role(1)              'P' = publish, 'S' = subscribe, 'R' = resume
//	channelLen(uvarint) channelName
//	[lastSeq(uvarint)]   role 'R' only: last contiguously delivered seq
//	placement(1)         'P'/'B'/'R'/'A', or '-' for no preference
//
// Role 'R' (resume) is a subscription that also presents the last sequence
// number the client delivered contiguously. The placement byte says where
// this peer wants compression to run (publisher, broker, receiver, or auto
// — see selector.Placement); '-' leaves it to the broker's configured
// default. Any other byte degrades to publisher-side compression rather
// than refusing the session, so a client naming a placement this broker
// does not know still gets a working (if inline-compressed) stream.
//
// The broker answers with a single status byte: 0 accepts the session, 1
// and 2 refuse it and are followed by uvarint-length error text and a
// close (anything else is a malformed reply, ErrBadReply). For an
// accepted resume the status byte is followed by one uvarint: the sequence
// number of the first block this session will deliver. A client that asked
// to resume from lastSeq reads a gap of (firstSeq - lastSeq - 1) blocks
// when the broker's replay window no longer reaches back far enough — an
// explicit, counted discontinuity rather than a silent skip.
//
// After acceptance the connection speaks the internal/codec frame format,
// one logical event per frame:
//
//   - publishers send frames to the broker (compressed however the
//     publisher's own engine decided; the broker decodes to recover the
//     original event bytes before fan-out);
//   - subscribers receive frames from the broker, each compressed by that
//     subscriber's private adaptation loop and stamped with its
//     per-channel sequence number.
//
// Zero-length frames are keepalives in both directions and never carry
// data. Subscribers may additionally write arbitrary bytes at any time;
// the broker discards them but counts them as liveness (pings) against its
// read timeout.
const (
	// ProtocolVersion is the hello's version byte; the broker hangs up on
	// any other.
	ProtocolVersion = 3
	// RolePublish, RoleSubscribe and RoleResume are the hello's role bytes.
	RolePublish   = 'P'
	RoleSubscribe = 'S'
	RoleResume    = 'R'
	// placementDefault is the hello's "no preference" placement byte: the
	// session runs at the broker's Config.Placement.
	placementDefault = '-'
	// MaxChannelName bounds the handshake channel-name length.
	MaxChannelName = 255

	statusOK     = 0
	statusRefuse = 1
	// statusRetry is the admission-control reply: refuse-with-RETRY-AFTER.
	// The wire is the refusal layout (uvarint-length reason text) followed by
	// one uvarint of suggested retry delay in milliseconds.
	statusRetry = 2
)

var handshakeMagic = [3]byte{'C', 'C', 'B'}

// Handshake errors.
var (
	ErrBadHandshake = errors.New("broker: bad handshake")
	// ErrRefused reports that the broker rejected the session; the reason
	// from the wire is attached to the returned error text.
	ErrRefused = errors.New("broker: session refused")
	// ErrBadReply reports a handshake reply that is not one: an unknown
	// status byte or a reason cut short. The broker refused nothing — the
	// reply was damaged or pre-empted on the wire — so it is deliberately
	// not an ErrRefused.
	ErrBadReply = errors.New("broker: malformed handshake reply")
)

// OverloadError is the client-side face of a RETRY-AFTER refusal: the
// broker's admission control shed this subscribe under memory pressure and
// suggested when to try again. It matches errors.Is(err, ErrRefused), so
// callers that only know refusals still behave; callers that know better
// (errors.As) honor RetryAfter instead of their own backoff schedule.
type OverloadError struct {
	RetryAfter time.Duration
	Reason     string
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("broker: session refused: %s (retry after %v)", e.Reason, e.RetryAfter)
}

// Is makes errors.Is(err, ErrRefused) hold for overload refusals.
func (e *OverloadError) Is(target error) bool { return target == ErrRefused }

// EvictedError is what a subscriber's frame stream ends with when the
// broker severed it deliberately and said why (the explicit close-reason
// frame): "evicted: overload" instead of a generic read error. Clients
// treat it as a signal to back off with jitter and resume.
type EvictedError struct {
	Reason codec.CloseReason
	Msg    string
}

func (e *EvictedError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("broker: evicted: %s (%s)", e.Reason, e.Msg)
	}
	return fmt.Sprintf("broker: evicted: %s", e.Reason)
}

// HandshakePublish performs the client half of a publisher handshake on
// conn. On return the caller owns a frame stream to the broker: every
// internal/codec frame written becomes one event on the named channel.
func HandshakePublish(conn net.Conn, channel string) error {
	_, err := clientHandshake(conn, RolePublish, channel, 0, placementDefault)
	return err
}

// HandshakeSubscribe performs the client half of a subscriber handshake on
// conn, at the broker's default placement. On return the broker streams
// internal/codec frames, one event per frame; zero-length frames are
// heartbeats to be skipped.
func HandshakeSubscribe(conn net.Conn, channel string) error {
	_, err := clientHandshake(conn, RoleSubscribe, channel, 0, placementDefault)
	return err
}

// HandshakeResume performs the client half of a resuming subscription:
// channel plus the last sequence number the client delivered contiguously
// (0 = nothing delivered yet). It returns the sequence number of the first
// block the broker will send on this session; a firstSeq greater than
// lastSeq+1 means the replay window was exceeded and firstSeq-lastSeq-1
// blocks are irrecoverably gone — the caller should surface that gap, not
// hide it.
func HandshakeResume(conn net.Conn, channel string, lastSeq uint64) (firstSeq uint64, err error) {
	return clientHandshake(conn, RoleResume, channel, lastSeq, placementDefault)
}

// HandshakePublishPlacement is HandshakePublish with an advertised
// compression placement: where this publisher wants compression to run for
// the channel's consumers. The advert is informational for the broker's
// accounting — the publisher enforces its own half by shipping raw frames
// when placement offloads downstream.
func HandshakePublishPlacement(conn net.Conn, channel string, pl selector.Placement) error {
	_, err := advertHandshake(conn, RolePublish, channel, 0, pl)
	return err
}

// HandshakeSubscribePlacement is HandshakeSubscribe with an advertised
// compression placement, which overrides the broker's configured default
// for this session.
func HandshakeSubscribePlacement(conn net.Conn, channel string, pl selector.Placement) error {
	_, err := advertHandshake(conn, RoleSubscribe, channel, 0, pl)
	return err
}

// HandshakeResumePlacement is HandshakeResume with an advertised
// compression placement.
func HandshakeResumePlacement(conn net.Conn, channel string, lastSeq uint64, pl selector.Placement) (firstSeq uint64, err error) {
	return advertHandshake(conn, RoleResume, channel, lastSeq, pl)
}

func advertHandshake(conn net.Conn, role byte, channel string, lastSeq uint64, pl selector.Placement) (uint64, error) {
	if !pl.Valid() {
		return 0, fmt.Errorf("%w: invalid placement %s", ErrBadHandshake, pl)
	}
	return clientHandshake(conn, role, channel, lastSeq, pl.WireByte())
}

// appendHello appends the one hello layout to dst.
func appendHello(dst []byte, role byte, channel string, lastSeq uint64, placement byte) []byte {
	dst = append(dst, handshakeMagic[:]...)
	dst = append(dst, ProtocolVersion, role)
	dst = binary.AppendUvarint(dst, uint64(len(channel)))
	dst = append(dst, channel...)
	if role == RoleResume {
		dst = binary.AppendUvarint(dst, lastSeq)
	}
	return append(dst, placement)
}

func clientHandshake(conn net.Conn, role byte, channel string, lastSeq uint64, placement byte) (uint64, error) {
	if channel == "" || len(channel) > MaxChannelName {
		return 0, fmt.Errorf("%w: channel name length %d out of [1,%d]",
			ErrBadHandshake, len(channel), MaxChannelName)
	}
	msg := appendHello(make([]byte, 0, 16+len(channel)), role, channel, lastSeq, placement)
	if _, err := conn.Write(msg); err != nil {
		return 0, fmt.Errorf("broker: handshake write: %w", err)
	}
	var status [1]byte
	if _, err := io.ReadFull(conn, status[:]); err != nil {
		return 0, fmt.Errorf("broker: handshake reply: %w", err)
	}
	if status[0] == statusOK {
		if role != RoleResume {
			return 0, nil
		}
		firstSeq, err := readUvarint(conn)
		if err != nil {
			return 0, fmt.Errorf("broker: resume reply: %w", err)
		}
		return firstSeq, nil
	}
	if status[0] != statusRefuse && status[0] != statusRetry {
		return 0, fmt.Errorf("%w: unknown status byte %#x", ErrBadReply, status[0])
	}
	reason, err := readShortString(conn)
	if err != nil {
		return 0, fmt.Errorf("%w: refusal reason: %v", ErrBadReply, err)
	}
	if status[0] == statusRetry {
		millis, err := readUvarint(conn)
		if err != nil {
			// Reason arrived, delay didn't: still an overload refusal, with
			// no retry hint for the caller's backoff to override.
			return 0, &OverloadError{Reason: reason}
		}
		return 0, &OverloadError{RetryAfter: time.Duration(millis) * time.Millisecond, Reason: reason}
	}
	return 0, fmt.Errorf("%w: %s", ErrRefused, reason)
}

// handshake is the parsed server half of a client hello.
type handshake struct {
	role    byte
	channel string
	// lastSeq is the resume point presented by a RoleResume client: the last
	// sequence number it delivered contiguously (0 = none).
	lastSeq uint64
	// placement is the hello's placement byte as it arrived: an advert,
	// placementDefault, or a byte this broker does not know
	// (Broker.resolvePlacement turns it into a selector.Placement).
	placement byte
}

// readHandshake parses the server half. It reads byte-at-a-time so no
// stream data past the handshake is consumed.
func readHandshake(r io.Reader) (handshake, error) {
	var hs handshake
	var fixed [5]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return hs, fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	if fixed[0] != handshakeMagic[0] || fixed[1] != handshakeMagic[1] || fixed[2] != handshakeMagic[2] {
		return hs, fmt.Errorf("%w: bad magic", ErrBadHandshake)
	}
	if fixed[3] != ProtocolVersion {
		return hs, fmt.Errorf("%w: unsupported version %d", ErrBadHandshake, fixed[3])
	}
	hs.role = fixed[4]
	switch hs.role {
	case RolePublish, RoleSubscribe, RoleResume:
	default:
		return hs, fmt.Errorf("%w: unknown role %q", ErrBadHandshake, hs.role)
	}
	channel, err := readShortString(r)
	if err != nil {
		return hs, fmt.Errorf("%w: channel name: %v", ErrBadHandshake, err)
	}
	if channel == "" {
		return hs, fmt.Errorf("%w: empty channel name", ErrBadHandshake)
	}
	hs.channel = channel
	if hs.role == RoleResume {
		lastSeq, err := readUvarint(r)
		if err != nil {
			return hs, fmt.Errorf("%w: resume seq: %v", ErrBadHandshake, err)
		}
		hs.lastSeq = lastSeq
	}
	var one [1]byte
	if _, err := io.ReadFull(r, one[:]); err != nil {
		return hs, fmt.Errorf("%w: placement: %v", ErrBadHandshake, err)
	}
	hs.placement = one[0]
	return hs, nil
}

// writeResumeReply sends the accept status followed by the first sequence
// number the session will deliver.
func writeResumeReply(w io.Writer, firstSeq uint64) error {
	msg := make([]byte, 0, 11)
	msg = append(msg, statusOK)
	msg = binary.AppendUvarint(msg, firstSeq)
	_, err := w.Write(msg)
	return err
}

// writeRetryReply sends the admission-control refusal: reason text plus the
// suggested retry delay.
func writeRetryReply(w io.Writer, reason string, retryAfter time.Duration) error {
	if len(reason) > MaxChannelName {
		reason = reason[:MaxChannelName]
	}
	millis := retryAfter.Milliseconds()
	if millis < 0 {
		millis = 0
	}
	msg := make([]byte, 0, 12+len(reason))
	msg = append(msg, statusRetry)
	msg = binary.AppendUvarint(msg, uint64(len(reason)))
	msg = append(msg, reason...)
	msg = binary.AppendUvarint(msg, uint64(millis))
	_, err := w.Write(msg)
	return err
}

// writeReply sends the broker's accept/refuse status. A nil reason accepts.
func writeReply(w io.Writer, reason error) error {
	if reason == nil {
		_, err := w.Write([]byte{statusOK})
		return err
	}
	text := reason.Error()
	if len(text) > MaxChannelName {
		text = text[:MaxChannelName]
	}
	msg := make([]byte, 0, 2+len(text))
	msg = append(msg, statusRefuse)
	msg = binary.AppendUvarint(msg, uint64(len(text)))
	msg = append(msg, text...)
	_, err := w.Write(msg)
	return err
}

// readShortString reads a uvarint-length-prefixed string bounded by
// MaxChannelName, one byte at a time (the stream that follows must not be
// consumed).
func readShortString(r io.Reader) (string, error) {
	n, err := readUvarint(r)
	if err != nil {
		return "", err
	}
	if n > MaxChannelName {
		return "", fmt.Errorf("string length %d over limit %d", n, MaxChannelName)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// byteReader adapts r to io.ByteReader with single-byte reads (no
// buffering).
type byteReader struct{ r io.Reader }

func (b byteReader) ReadByte() (byte, error) {
	var one [1]byte
	_, err := io.ReadFull(b.r, one[:])
	return one[0], err
}

// readUvarint decodes a uvarint from r without reading past it; a value
// that overflows 64 bits is an error.
func readUvarint(r io.Reader) (uint64, error) {
	return binary.ReadUvarint(byteReader{r})
}
