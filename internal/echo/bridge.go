package echo

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Bridge is the transport encapsulation layer of §3.2: it multiplexes any
// number of event channels over a single bidirectional connection between
// two address spaces, so "maintaining a small number of open channels and
// switching among them ... does not adversely affect performance".
//
// Protocol (all integers are uvarints, strings are length-prefixed):
//
//	msg       = type(1) channelName body
//	subscribe = —                    (peer wants the named channel's events)
//	event     = attrCount (key value)* payloadLen payload
//	attr      = key value            (quality-attribute propagation)
//
// A bridge forwards a channel's events to the peer once the peer has
// subscribed, and submits events arriving from the peer into the local
// channel. Origin tagging prevents echo loops when both directions are
// active on one channel.
type Bridge struct {
	domain *Domain
	conn   io.ReadWriteCloser
	wmu    sync.Mutex
	w      *bufio.Writer

	mu      sync.Mutex
	exports map[string]*Subscription // channels the peer subscribed to
	imports map[string]bool          // channels we subscribed to
	watches map[string]*AttrWatch
	closed  bool

	done chan struct{}
	err  error
}

// Message type bytes (2 is unassigned).
const (
	msgSubscribe = 1
	msgEvent     = 3
	msgAttr      = 4
)

const maxBridgePayload = 64 << 20

// NewBridge wires domain to a peer over conn and starts the read loop.
// Callers must eventually Close the bridge (closing conn as a side effect).
func NewBridge(domain *Domain, conn io.ReadWriteCloser) *Bridge {
	b := &Bridge{
		domain:  domain,
		conn:    conn,
		w:       bufio.NewWriter(conn),
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
	if err := b.send(msgSubscribe, name, nil); err != nil {
		return nil, err
	}
	return ch, nil
}

// Done is closed when the read loop exits (peer hangup or Close).
func (b *Bridge) Done() <-chan struct{} { return b.done }

// Err reports why the bridge stopped (nil after a clean Close).
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
		body := appendString(nil, key)
		body = appendString(body, value)
		_ = b.send(msgAttr, ch.Name(), body)
	})
	b.mu.Lock()
	b.watches[ch.Name()] = w
	b.mu.Unlock()
}

// send writes one message.
func (b *Bridge) send(typ byte, channel string, body []byte) error {
	b.wmu.Lock()
	defer b.wmu.Unlock()
	var hdr []byte
	hdr = append(hdr, typ)
	hdr = appendString(hdr, channel)
	if _, err := b.w.Write(hdr); err != nil {
		return err
	}
	var lenBuf []byte
	lenBuf = binary.AppendUvarint(lenBuf, uint64(len(body)))
	if _, err := b.w.Write(lenBuf); err != nil {
		return err
	}
	if len(body) > 0 {
		if _, err := b.w.Write(body); err != nil {
			return err
		}
	}
	return b.w.Flush()
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func (b *Bridge) readLoop() {
	defer close(b.done)
	defer b.teardown()
	r := bufio.NewReader(b.conn)
	for {
		if err := b.readMessage(r); err != nil {
			b.mu.Lock()
			if b.err == nil {
				b.err = err
			}
			b.mu.Unlock()
			return
		}
	}
}

func readString(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > maxBridgePayload {
		return "", fmt.Errorf("echo: string length %d too large", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func (b *Bridge) readMessage(r *bufio.Reader) error {
	typ, err := r.ReadByte()
	if err != nil {
		return err
	}
	channel, err := readString(r)
	if err != nil {
		return err
	}
	bodyLen, err := binary.ReadUvarint(r)
	if err != nil {
		return err
	}
	if bodyLen > maxBridgePayload {
		return fmt.Errorf("echo: message body %d too large", bodyLen)
	}
	body := make([]byte, bodyLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	switch typ {
	case msgSubscribe:
		b.handleSubscribe(channel)
	case msgEvent:
		return b.handleEvent(channel, body)
	case msgAttr:
		return b.handleAttr(channel, body)
	default:
		return fmt.Errorf("echo: unknown message type %d", typ)
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
		body := binary.AppendUvarint(nil, uint64(len(ev.Attrs)))
		for k, v := range ev.Attrs {
			body = appendString(body, k)
			body = appendString(body, v)
		}
		body = binary.AppendUvarint(body, uint64(len(ev.Data)))
		body = append(body, ev.Data...)
		_ = b.send(msgEvent, channel, body)
	})
	b.mu.Lock()
	b.exports[channel] = sub
	b.mu.Unlock()
	b.watchChannel(ch)
	// Late-joiner attribute sync: the peer needs the channel's current
	// quality-attribute state (format descriptors, method settings, ...),
	// not just future updates.
	for k, v := range ch.Attrs() {
		body := appendString(nil, k)
		body = appendString(body, v)
		_ = b.send(msgAttr, channel, body)
	}
}

func (b *Bridge) handleEvent(channel string, body []byte) error {
	br := newByteCursor(body)
	nAttrs, err := br.uvarint()
	if err != nil {
		return err
	}
	var attrs Attributes
	if nAttrs > 0 {
		if nAttrs > 4096 {
			return fmt.Errorf("echo: %d attributes too many", nAttrs)
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
	payload, err := br.bytes()
	if err != nil {
		return err
	}
	ch := b.domain.OpenChannel(channel)
	// Deliver locally, skipping our own export subscription to avoid loops.
	_ = ch.submitFrom(b, Event{Data: payload, Attrs: attrs})
	return nil
}

func (b *Bridge) handleAttr(channel string, body []byte) error {
	br := newByteCursor(body)
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

func newByteCursor(buf []byte) *byteCursor { return &byteCursor{buf: buf} }

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

func (c *byteCursor) bytes() ([]byte, error) {
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if uint64(len(c.buf)) < n {
		return nil, io.ErrUnexpectedEOF
	}
	out := make([]byte, n)
	copy(out, c.buf[:n])
	c.buf = c.buf[n:]
	return out, nil
}
