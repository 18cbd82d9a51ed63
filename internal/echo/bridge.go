package echo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"ccx/internal/codec"
)

// Bridge is the transport encapsulation layer of §3.2: it multiplexes any
// number of event channels over a single bidirectional connection between
// two address spaces, so "maintaining a small number of open channels and
// switching among them ... does not adversely affect performance".
//
// Protocol: every message is one ccx frame (method None) whose annotation
// is one codec.AnnoKindEcho record, type(1) followed by the channel name,
// and whose payload is the message body (integers are uvarints, strings are
// length-prefixed):
//
//	subscribe = —                    (peer wants the named channel's events)
//	event     = attrCount (key value)* data   (data is the rest of the payload)
//	attr      = key value            (quality-attribute propagation)
//
// A peer's bytes are read by one codec.FrameReader, so the frame CRC and
// the codec.MaxFrameLen bound cover the bridge: a message body is at most
// 16 MiB (see MaxEventData), and the reader keeps a scratch buffer as large
// as the largest message it has read. An event's data goes out behind its
// frame header uncopied. A bridge forwards a channel's events to the peer once the peer has
// subscribed, and submits events arriving from the peer into the local
// channel. Origin tagging prevents echo loops when both directions are
// active on one channel.
type Bridge struct {
	domain *Domain
	conn   io.ReadWriteCloser
	wmu    sync.Mutex // serialises conn.Write so frames never interleave

	mu      sync.Mutex
	exports map[string]*Subscription // channels the peer subscribed to
	imports map[string]bool          // channels we subscribed to
	watches map[string]*AttrWatch
	closed  bool

	done    chan struct{}
	err     error
	refused atomic.Int64 // exported events dropped unframed (Refused)
}

// Message type bytes (2 is unassigned).
const (
	msgSubscribe = 1
	msgEvent     = 3
	msgAttr      = 4
)

// MaxEventData is the longest event data a Bridge carries, on a channel and
// on its DeriveCompressed channel alike. A bridged event is one frame of at
// most codec.MaxFrameLen bytes that also holds the event's attributes and,
// on a derived channel, the data's own frame header (at most about 1 KiB);
// 4 KiB is kept for those. An event the bridge cannot frame is dropped and
// counted in Bridge.Refused.
const MaxEventData = codec.MaxFrameLen - 4<<10

// maxAttrs bounds the attribute count a peer's event may declare.
const maxAttrs = 4096

// NewBridge wires domain to a peer over conn and starts the read loop.
// Callers must eventually Close the bridge (closing conn as a side effect).
func NewBridge(domain *Domain, conn io.ReadWriteCloser) *Bridge {
	b := &Bridge{
		domain:  domain,
		conn:    conn,
		exports: make(map[string]*Subscription),
		imports: make(map[string]bool),
		watches: make(map[string]*AttrWatch),
		done:    make(chan struct{}),
	}
	go b.readLoop()
	return b
}

// ImportChannel asks the peer to forward the named channel's events here.
// The local channel is created on demand; returned so callers can subscribe.
func (b *Bridge) ImportChannel(name string) (*EventChannel, error) {
	b.mu.Lock()
	already := b.imports[name]
	b.imports[name] = true
	b.mu.Unlock()
	ch := b.domain.OpenChannel(name)
	if already {
		return ch, nil
	}
	b.watchChannel(ch)
	if err := b.send(msgSubscribe, name, nil, nil); err != nil {
		return nil, err
	}
	return ch, nil
}

// Done is closed when the read loop exits (peer hangup or Close).
func (b *Bridge) Done() <-chan struct{} { return b.done }

// Err reports why the bridge stopped: nil after a clean Close or peer
// hangup at a message boundary, else the failed read, the malformed
// message, the failed write on the export path, or the failed send on the
// attribute path.
func (b *Bridge) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if errors.Is(b.err, io.EOF) || errors.Is(b.err, io.ErrClosedPipe) {
		return nil
	}
	return b.err
}

// Close tears the bridge down and closes the connection.
func (b *Bridge) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	b.mu.Unlock()
	b.teardown()
	return b.conn.Close()
}

// teardown cancels every export subscription and attribute watch. It runs
// from Close and when the read loop exits on its own (abrupt peer hangup),
// so a dead peer's subscriptions stop receiving — and serialising — events
// instead of leaking in the channel's delivery path forever.
func (b *Bridge) teardown() {
	b.mu.Lock()
	subs := b.exports
	b.exports = make(map[string]*Subscription)
	watches := b.watches
	b.watches = make(map[string]*AttrWatch)
	b.mu.Unlock()
	for _, s := range subs {
		s.Cancel()
	}
	for _, w := range watches {
		w.Cancel()
	}
}

// watchChannel forwards local attribute updates for ch to the peer — the
// upstream path consumers use to inform producers of method changes.
func (b *Bridge) watchChannel(ch *EventChannel) {
	b.mu.Lock()
	if _, ok := b.watches[ch.Name()]; ok {
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	w := ch.watchAttrsFrom(b, func(key, value string) {
		b.forward(msgAttr, ch.Name(), appendString(appendString(nil, key), value), nil)
	})
	b.mu.Lock()
	b.watches[ch.Name()] = w
	b.mu.Unlock()
}

// Refused reports how many exported events the bridge dropped because one
// frame cannot carry them. Each is refused before any of its bytes is
// written, so the stream stays whole and the bridge carries on.
func (b *Bridge) Refused() int64 { return b.refused.Load() }

// errUnframed marks a message send refused before writing a byte: one frame
// cannot carry it.
var errUnframed = errors.New("echo: message cannot be framed")

// send writes one message as one frame whose body is head then data. The
// header and head go out in one buffer and data in a second, uncopied (one
// writev on a TCP connection).
func (b *Bridge) send(typ byte, channel string, head, data []byte) error {
	anno := codec.AppendAnnoRecord(nil, codec.AnnoKindEcho, append([]byte{typ}, channel...))
	frame, err := codec.AppendFrameHeader(nil, codec.FrameOpts{Anno: anno}, head, data)
	if err != nil {
		return fmt.Errorf("%w: %w", errUnframed, err)
	}
	bufs := net.Buffers{append(frame, head...)}
	if len(data) > 0 {
		bufs = append(bufs, data)
	}
	b.wmu.Lock()
	defer b.wmu.Unlock()
	_, err = bufs.WriteTo(b.conn)
	return err
}

// forward sends a message on the export or attribute path, where no caller
// can take the error. An event one frame cannot carry is dropped and
// counted; any other failed send ends the bridge, and Err names it.
func (b *Bridge) forward(typ byte, channel string, head, data []byte) {
	err := b.send(typ, channel, head, data)
	switch {
	case err == nil:
	case typ == msgEvent && errors.Is(err, errUnframed):
		b.refused.Add(1)
	default:
		b.setErr(fmt.Errorf("echo: forwarding on %q: %w", channel, err))
		b.conn.Close()
	}
}

// setErr records why the bridge ends: the first cause wins, and none is
// recorded once Close has run.
func (b *Bridge) setErr(err error) {
	b.mu.Lock()
	if b.err == nil && !b.closed {
		b.err = err
	}
	b.mu.Unlock()
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func (b *Bridge) readLoop() {
	defer close(b.done)
	defer b.teardown()
	fr := codec.NewFrameReader(b.conn, nil)
	for {
		// ReadBlock, not ReadBlockBorrowed: subscribers keep event data.
		body, info, err := fr.ReadBlock()
		if err == nil {
			err = b.dispatch(info.Anno, body)
		}
		if err != nil {
			b.setErr(err)
			return
		}
	}
}

// dispatch handles one message: the frame's echo record names its type
// and channel, and body is the frame's payload.
func (b *Bridge) dispatch(anno, body []byte) error {
	rec, ok := codec.AnnoRecord(anno, codec.AnnoKindEcho)
	if !ok || len(rec) == 0 {
		return errors.New("echo: frame carries no echo record")
	}
	channel := string(rec[1:])
	switch rec[0] {
	case msgSubscribe:
		b.handleSubscribe(channel)
	case msgEvent:
		return b.handleEvent(channel, body)
	case msgAttr:
		return b.handleAttr(channel, body)
	default:
		return fmt.Errorf("echo: unknown message type %d", rec[0])
	}
	return nil
}

func (b *Bridge) handleSubscribe(channel string) {
	ch := b.domain.OpenChannel(channel)
	b.mu.Lock()
	if _, ok := b.exports[channel]; ok || b.closed {
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	sub := ch.subscribeFrom(b, func(ev Event) {
		head := binary.AppendUvarint(nil, uint64(len(ev.Attrs)))
		for k, v := range ev.Attrs {
			head = appendString(head, k)
			head = appendString(head, v)
		}
		b.forward(msgEvent, channel, head, ev.Data)
	})
	b.mu.Lock()
	b.exports[channel] = sub
	b.mu.Unlock()
	b.watchChannel(ch)
	// Late-joiner attribute sync: the peer needs the channel's current
	// quality-attribute state (format descriptors, method settings, ...),
	// not just future updates.
	for k, v := range ch.Attrs() {
		b.forward(msgAttr, channel, appendString(appendString(nil, k), v), nil)
	}
}

func (b *Bridge) handleEvent(channel string, body []byte) error {
	br := &byteCursor{buf: body}
	nAttrs, err := br.uvarint()
	if err != nil {
		return err
	}
	var attrs Attributes
	if nAttrs > 0 {
		// Each attribute takes at least its two length bytes, and the
		// count sizes the map below.
		if nAttrs > maxAttrs || nAttrs > uint64(len(br.buf))/2 {
			return fmt.Errorf("echo: %d attributes in %d bytes", nAttrs, len(br.buf))
		}
		attrs = make(Attributes, nAttrs)
		for i := uint64(0); i < nAttrs; i++ {
			k, err := br.str()
			if err != nil {
				return err
			}
			v, err := br.str()
			if err != nil {
				return err
			}
			attrs[k] = v
		}
	}
	ch := b.domain.OpenChannel(channel)
	// Deliver locally, skipping our own export subscription to avoid loops.
	_ = ch.submitFrom(b, Event{Data: br.buf, Attrs: attrs})
	return nil
}

func (b *Bridge) handleAttr(channel string, body []byte) error {
	br := &byteCursor{buf: body}
	k, err := br.str()
	if err != nil {
		return err
	}
	v, err := br.str()
	if err != nil {
		return err
	}
	ch := b.domain.OpenChannel(channel)
	ch.setAttrFrom(b, k, v)
	return nil
}

// byteCursor is a tiny sequential decoder over a message body.
type byteCursor struct {
	buf []byte
}

func (c *byteCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.buf)
	if n <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	c.buf = c.buf[n:]
	return v, nil
}

func (c *byteCursor) str() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if uint64(len(c.buf)) < n {
		return "", io.ErrUnexpectedEOF
	}
	s := string(c.buf[:n])
	c.buf = c.buf[n:]
	return s, nil
}
