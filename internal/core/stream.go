package core

import (
	"errors"
	"io"
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
type Writer struct {
	e       *Engine
	s       *Session
	w       io.Writer
	buf     []byte
	onBlock func(BlockResult)
	pipe    *Pipeline // non-nil when the engine configured Workers > 1
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
	if e.workers > 1 {
		wr.pipe = NewPipeline(e, e.workers, nil, e.sendSink(wr.send, onBlock))
	}
	return wr
}

// send transmits one frame over the underlying writer, timing the call.
func (w *Writer) send(frame []byte) (time.Duration, error) {
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
		// Ownership of block transfers to the pipeline, so the Writer
		// fills a fresh buffer and never mutates this one again.
		w.buf = make([]byte, 0, w.e.BlockSize())
		return w.pipe.Submit(Job{Block: block})
	}
	// The next block is unknown in streaming mode, so the probe runs at
	// Decide time for each block (the synchronous fallback). The block is
	// sent when TransmitBlock returns, so the Writer refills it in place.
	res, err := w.s.TransmitBlock(block, nil, w.send)
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
// in-flight block to reach the underlying writer). It does not close the
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
}

// NewReader returns a Reader over r. reg selects the codec set (nil =
// built-ins); onBlock, when non-nil, observes every received block.
func NewReader(r io.Reader, reg *codec.Registry, onBlock func(codec.BlockInfo)) *Reader {
	return &Reader{fr: codec.NewFrameReader(r, reg), onBlock: onBlock}
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
		if len(data) == 0 && len(info.Anno) > 0 && r.onClose != nil {
			// Control frame: empty payload with an annotation.
			if cerr := r.onClose(info.Anno); cerr != nil {
				r.err = cerr
				return 0, cerr
			}
			r.seq++
			continue
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
