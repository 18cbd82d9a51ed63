package core

import (
	"errors"
	"io"
	"net"
	"time"

	"ccx/internal/codec"
)

// Writer adapts the adaptive engine to io.Writer: bytes written are cut
// into engine-sized blocks, each compressed with the method the selector
// picks at that moment, framed, and forwarded to the underlying writer.
// Close flushes the final partial block.
//
// Send time is measured around the underlying Write call. Over a TCP
// connection with a full pipe this tracks the receiver's acceptance rate
// through backpressure — the end-to-end signal the paper's monitor wants.
//
// On a net.Conn the Writer asks its receiver for acknowledgements (ack.go)
// and keeps at most sendWindow frames unacknowledged, so it sends at most
// sendWindow frames per round trip; time spent waiting on the window is
// not send time. A goroutine reads the answers until the connection
// closes. The receiver must be a core.Reader or the broker, which answer:
// see Close.
type Writer struct {
	e       *Engine
	s       *Session
	w       io.Writer
	buf     []byte
	onBlock func(BlockResult)
	pipe    *Pipeline   // non-nil when the engine configured Workers > 1
	free    chan []byte // pipelined mode: block buffers whose frames are sent
	win     *window     // non-nil when w is a net.Conn
	closed  bool
}

// NewWriter returns an adaptive Writer. onBlock, when non-nil, observes
// every transmitted block. With Config.Workers > 1 blocks are compressed
// concurrently on a Pipeline (frames still reach w strictly in block
// order), and onBlock fires from the pipeline's sequencer goroutine.
func NewWriter(w io.Writer, e *Engine, onBlock func(BlockResult)) *Writer {
	wr := &Writer{
		e:       e,
		s:       NewSession(e),
		w:       w,
		buf:     make([]byte, 0, e.BlockSize()),
		onBlock: onBlock,
	}
	if c, ok := w.(net.Conn); ok {
		wr.win = newWindow(c, e.tx)
	}
	if e.workers > 1 {
		// Room for every block the pipeline can hold — its order queue of
		// 2×workers, one at the sink and one blocked in Submit — so no
		// buffer is dropped once they are all made; the Writer's own is
		// never on the list.
		wr.free = make(chan []byte, 2*e.workers+2)
		sink := e.sendSink(wr.send, onBlock)
		wr.pipe = NewPipeline(e, e.workers, nil, func(enc Encoded) (bool, error) {
			keep, err := sink(enc)
			select {
			case wr.free <- enc.Job.Block[:0]:
			default:
			}
			return keep, err
		})
	}
	return wr
}

// send transmits one frame over the underlying writer, timing the call. On
// a windowed conn it first waits for the window, outside the timing.
func (w *Writer) send(frame []byte) (time.Duration, error) {
	if w.win != nil {
		frame = w.win.admit(frame)
	}
	start := time.Now()
	if _, err := w.w.Write(frame); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// Write implements io.Writer.
func (w *Writer) Write(p []byte) (int, error) {
	if w.closed {
		return 0, errors.New("core: write on closed Writer")
	}
	total := len(p)
	bs := w.e.BlockSize()
	for len(p) > 0 {
		space := bs - len(w.buf)
		n := len(p)
		if n > space {
			n = space
		}
		w.buf = append(w.buf, p[:n]...)
		p = p[n:]
		if len(w.buf) == bs {
			if err := w.flushBlock(); err != nil {
				return total - len(p), err
			}
		}
	}
	return total, nil
}

func (w *Writer) flushBlock() error {
	block := w.buf
	if w.pipe != nil {
		// Ownership of block transfers to the pipeline until the sink has
		// sent its frame, so the Writer fills a recycled or fresh buffer.
		select {
		case w.buf = <-w.free:
		default:
			w.buf = make([]byte, 0, w.e.BlockSize())
		}
		return w.pipe.Submit(Job{Block: block})
	}
	// The block is sent when TransmitBlock returns, so the Writer refills
	// it in place.
	res, err := w.s.TransmitBlock(block, w.send)
	w.buf = block[:0]
	if err != nil {
		return err
	}
	if w.onBlock != nil {
		w.onBlock(res)
	}
	return nil
}

// Close flushes buffered data (and, in pipelined mode, waits for every
// in-flight block to reach the underlying writer). On a net.Conn it then
// asks once more and returns once the receiver has acknowledged every
// byte, or with an error once the acknowledgements stop first: closing a
// TCP socket with unread bytes in its receive queue sends RST, and the
// peer loses whatever it had not read yet. A receiver that has never
// answered gets 2 s (or one read timeout) to answer; without an answer
// Close returns nil with nothing drained, so a receiver that does not
// answer at all costs every Close that wait. It does not close the
// underlying writer.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	var err error
	if len(w.buf) > 0 {
		err = w.flushBlock()
	}
	if w.pipe != nil {
		if cerr := w.pipe.Close(); err == nil {
			err = cerr
		}
	}
	if w.win != nil && err == nil {
		err = w.win.drain()
	}
	return err
}

var _ io.WriteCloser = (*Writer)(nil)

// Reader decodes an adaptive frame stream back into the original bytes.
type Reader struct {
	fr        *codec.FrameReader
	rest      []byte
	onBlock   func(codec.BlockInfo)
	onCorrupt func(error) bool
	err       error

	tel     Telemetry
	rx      *rxInstruments   // nil unless SetTelemetry installed a registry
	seq     int              // ordinal of the next frame (healthy or corrupt)
	track   *DeliveryTracker // nil unless SetDeliveryTracker installed one
	onClose func(anno []byte) error
	ack     *Acker // nil unless r is a net.Conn
}

// NewReader returns a Reader over r. reg selects the codec set (nil =
// built-ins); onBlock, when non-nil, observes every received block. When r
// is a net.Conn the Reader answers the sender's acknowledgement requests on
// it (ack.go).
func NewReader(r io.Reader, reg *codec.Registry, onBlock func(codec.BlockInfo)) *Reader {
	rd := &Reader{onBlock: onBlock}
	if c, ok := r.(net.Conn); ok {
		rd.ack = NewAcker(c)
		r = rd.ack
	}
	rd.fr = codec.NewFrameReader(r, reg)
	return rd
}

// SetCorruptHandler installs h, called whenever a frame fails integrity
// checks (errors.Is(err, codec.ErrCorruptFrame)). Returning true skips the
// poisoned frame and resynchronizes on the next frame boundary; returning
// false (or h being nil) keeps the old fail-stop behaviour. Truncation and
// transport errors are never offered to h: there is no stream left to
// resync onto.
func (r *Reader) SetCorruptHandler(h func(error) bool) { r.onCorrupt = h }

// SetDeliveryTracker installs t, consulted for every sequenced frame:
// replayed duplicates are suppressed (counted, not delivered) and sequence
// discontinuities are accounted as explicit gaps — both surfaced through
// the telemetry instruments and trace. The tracker outlives the Reader, so
// a reconnecting consumer hands the same tracker to each new Reader and
// gets exactly-once delivery across the whole session. Unsequenced frames
// pass through untouched.
func (r *Reader) SetDeliveryTracker(t *DeliveryTracker) { r.track = t }

// SetCloseHandler installs h, called for zero-length annotated control
// frames (the broker's explicit-close protocol: a close-reason TLV stamped
// into an empty frame right before the connection is severed). A non-nil
// return becomes the Reader's terminal error, letting clients surface
// "evicted: overload" instead of whatever the torn transport produces; a
// nil return skips the frame like a heartbeat.
func (r *Reader) SetCloseHandler(h func(anno []byte) error) { r.onClose = h }

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	for len(r.rest) == 0 {
		if r.err != nil {
			return 0, r.err
		}
		// Borrowed: every byte of the block is copied into a caller's p
		// before the loop comes back here for the next frame.
		data, info, err := r.fr.ReadBlockBorrowed()
		if err != nil {
			if r.onCorrupt != nil && errors.Is(err, codec.ErrCorruptFrame) && r.onCorrupt(err) {
				r.observeCorrupt(err)
				r.seq++
				if r.ack != nil {
					r.ack.Frame(nil, true)
				}
				switch rerr := r.fr.Resync(); rerr {
				case nil:
					continue
				case io.EOF:
					// The stream died inside its final frame; the handler
					// already saw the damage, so end cleanly.
					err = io.EOF
				default:
					err = rerr
				}
			}
			r.err = err
			return 0, err
		}
		if r.ack != nil {
			r.ack.Frame(info.Anno, false)
		}
		if len(data) == 0 && len(info.Anno) > 0 {
			// Control frame: empty payload with an annotation.
			if _, _, ok := parseAck(info.Anno); ok {
				continue // the transport's, not the application's
			}
			if r.onClose != nil {
				if cerr := r.onClose(info.Anno); cerr != nil {
					r.err = cerr
					return 0, cerr
				}
				r.seq++
				continue
			}
		}
		if r.track != nil && info.HasSeq {
			deliver, gap := r.track.Observe(info.Seq)
			if gap > 0 {
				r.observeGap(info.Seq, gap)
			}
			if !deliver {
				r.observeDup(info)
				r.seq++
				continue
			}
		}
		r.observeBlock(info)
		r.seq++
		if r.onBlock != nil {
			r.onBlock(info)
		}
		r.rest = data
	}
	n := copy(p, r.rest)
	r.rest = r.rest[n:]
	return n, nil
}

var _ io.Reader = (*Reader)(nil)
