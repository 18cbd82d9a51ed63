package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ccx/internal/codec"
	"ccx/internal/metrics"
)

// Acknowledgements (DESIGN.md §5). A Writer on a net.Conn asks its receiver
// to acknowledge what it reads, in the same Write as its first frame; from
// then on the receiver answers every ackEvery frames, and at once on every
// request, with the count of stream bytes it has consumed. Bytes, not
// frames: a Resync that skips damaged frames cannot put the two ends out of
// step. The Writer keeps at most sendWindow frames unacknowledged once the
// first answer arrives, and its Close asks once more and waits until every
// byte is acknowledged.
const (
	// sendWindow is how many frames a Writer keeps unacknowledged: two in
	// flight let decode of block N overlap transfer of block N+1, and eight
	// keep a fast sender from filling the socket buffer instead.
	sendWindow = 8
	// ackEvery is how many frames a receiver reads between answers.
	ackEvery = 4
)

// ackRequest is the control frame that asks for acknowledgements.
var ackRequest = appendAckFrame(nil, nil)

// appendAckFrame appends to dst a zero-length unsequenced frame whose
// annotation is one AnnoKindAck record with the given body. Such a frame
// cannot fail to encode: method None, no sequence number, a short
// annotation.
func appendAckFrame(dst, body []byte) []byte {
	var anno [16]byte
	frame, _, _ := codec.AppendFrameOpts(dst, nil, codec.None, nil,
		codec.FrameOpts{Anno: codec.AppendAnnoRecord(anno[:0], codec.AnnoKindAck, body)})
	return frame
}

// parseAck finds an acknowledgement record in a frame annotation. ok says
// there is one; request says it asks rather than answers, and consumed is
// an answer's byte count.
func parseAck(anno []byte) (consumed int64, request, ok bool) {
	body, ok := codec.AnnoRecord(anno, codec.AnnoKindAck)
	if !ok {
		return 0, false, false
	}
	if len(body) == 0 {
		return 0, true, true
	}
	n, k := binary.Uvarint(body)
	if k <= 0 {
		return 0, false, false
	}
	return int64(n), false, true
}

// Acker is a receiver's side of the acknowledgements on one connection. The
// frame loop reads the stream through it, so it counts the bytes consumed,
// and reports every frame with Frame. It says nothing until the sender
// asks. Answers are written off the frame loop and coalesced, the latest
// count winning, so the frame loop never blocks on its own acknowledgement,
// even on a net.Pipe whose peer never reads. core.Reader and the broker's
// publisher ingest are its two users.
type Acker struct {
	conn net.Conn

	// The frame loop's own.
	read   int64 // stream bytes read
	frames int   // frames read since the first request
	asked  bool

	due  atomic.Int64 // the count the next answer carries
	busy atomic.Bool  // an answering goroutine runs, or a write failed

	// The answering goroutine's own.
	sent  int64 // the count last written
	frame []byte
}

// NewAcker returns an Acker that reads from and answers on conn.
func NewAcker(conn net.Conn) *Acker {
	return &Acker{conn: conn}
}

// Read reads from the connection, counting what it consumes.
func (a *Acker) Read(p []byte) (int, error) {
	n, err := a.conn.Read(p)
	a.read += int64(n)
	return n, err
}

// Frame accounts one frame read off the stream: anno is its annotation,
// and damaged says it failed its checks. A damaged frame is answered at
// once, since it may have been a request.
func (a *Acker) Frame(anno []byte, damaged bool) {
	_, request, _ := parseAck(anno)
	a.asked = a.asked || request
	if !a.asked {
		return
	}
	a.frames++
	if request || damaged || a.frames%ackEvery == 0 {
		a.due.Store(a.read)
		if a.busy.CompareAndSwap(false, true) {
			go a.answer()
		}
	}
}

// answer writes answers while one is due and then returns; Frame starts it
// again when the next falls due. Nothing waits between answers, so a
// receiver that stops reading leaves no goroutine behind, and one blocked
// writing to a peer that never reads returns when the connection closes. A
// failed write leaves busy set: nothing answers on a broken connection.
func (a *Acker) answer() {
	for {
		n := a.due.Load()
		if n != a.sent {
			var body [binary.MaxVarintLen64]byte
			a.frame = appendAckFrame(a.frame[:0], binary.AppendUvarint(body[:0], uint64(n)))
			if _, err := a.conn.Write(a.frame); err != nil {
				return
			}
			a.sent = n
		}
		a.busy.Store(false)
		// From here the Acker's fields are another goroutine's until the
		// CompareAndSwap wins. A count due before the Store is seen by
		// this Load; one due after it finds busy clear and starts a
		// goroutine, or finds this one still running and is seen on its
		// next pass.
		if a.due.Load() == n || !a.busy.CompareAndSwap(false, true) {
			return
		}
	}
}

// window is a Writer's side of the acknowledgements on a net.Conn: it asks
// with the first frame, holds each frame while sendWindow are
// unacknowledged, and reads the answers on one goroutine, which ends when
// the connection closes.
type window struct {
	conn net.Conn
	wait *metrics.Histogram // ccx.window_wait_seconds; nil without telemetry

	mu      sync.Mutex
	cond    sync.Cond // signalled on every answer and when the ack stream ends
	asked   bool
	on      bool      // an answer has arrived and the ack stream has not ended
	sent    int64     // stream bytes written, requests included
	acked   int64     // stream bytes the receiver has acknowledged; 0 until the first answer
	err     error     // why the ack stream ended; nil while it runs
	waiting time.Time // since when the Writer waits on an answer; zero while it does not
	deaf    bool      // Close waited firstAnswerWait and no answer ever came
	frames  int       // frames sent
	// ends holds the stream offset past each of the newest sendWindow
	// frames, at its frame number modulo sendWindow.
	ends [sendWindow]int64
}

func newWindow(conn net.Conn, tx *txInstruments) *window {
	win := &window{conn: conn}
	if tx != nil {
		win.wait = tx.windowWait
	}
	win.cond.L = &win.mu
	return win
}

// full reports whether sendWindow frames are unacknowledged, that is
// whether the oldest of the newest sendWindow is. win.mu is held.
func (win *window) full() bool {
	return win.on && win.frames >= sendWindow && win.ends[win.frames%sendWindow] > win.acked
}

// admit waits while the window is full and accounts frame as sent. It
// returns the bytes to write: the first frame goes out behind the request,
// in one Write.
func (win *window) admit(frame []byte) []byte {
	win.mu.Lock()
	defer win.mu.Unlock()
	var waited time.Duration
	if win.full() {
		win.waiting = time.Now()
		for win.full() {
			win.cond.Wait()
		}
		waited = time.Since(win.waiting)
		win.waiting = time.Time{}
	}
	if win.wait != nil {
		win.wait.ObserveDuration(waited)
	}
	out := frame
	if !win.asked {
		win.asked = true
		out = append(append(make([]byte, 0, len(ackRequest)+len(frame)), ackRequest...), frame...)
		go win.readAcks()
	}
	win.sent += int64(len(out))
	win.ends[win.frames%sendWindow] = win.sent
	win.frames++
	return out
}

// readAcks takes the receiver's answers off the connection until the
// stream ends. A read timeout (ccsend -timeout) ends it only when the
// Writer has waited on an answer for the whole read, in admit or in drain:
// then the peer is dead. Otherwise the pause is the Writer's own, its input
// idle with up to ackEvery-1 frames not yet due an answer, and the
// goroutine reads on, so the receiver's last answers never sit unread when
// the connection closes.
func (win *window) readAcks() {
	fr := codec.NewFrameReader(win.conn, nil)
	for {
		began := time.Now()
		_, info, err := fr.ReadBlockBorrowed()
		if err == nil {
			if n, request, ok := parseAck(info.Anno); ok && !request {
				win.ack(n)
			}
			continue
		}
		switch {
		case errors.Is(err, codec.ErrCorruptFrame):
			if err = fr.Resync(); err == nil {
				continue
			}
		case isTimeout(err) && !win.waitedSince(began):
			continue
		}
		win.mu.Lock()
		win.err, win.on = err, false
		win.mu.Unlock()
		win.cond.Broadcast()
		return
	}
}

// ack records an answer.
func (win *window) ack(n int64) {
	win.mu.Lock()
	win.acked = max(win.acked, n)
	win.on = true
	win.mu.Unlock()
	win.cond.Broadcast()
}

// waitedSince reports whether the Writer has been waiting on an answer
// since t or earlier.
func (win *window) waitedSince(t time.Time) bool {
	win.mu.Lock()
	defer win.mu.Unlock()
	return !win.waiting.IsZero() && !win.waiting.After(t)
}

// firstAnswerWait is how long Close waits for an answer when none has ever
// come: a receiver that does not answer at all (one from before
// acknowledgements, or a bare codec.FrameReader) looks just like one that
// has not read the first frame yet.
const firstAnswerWait = 2 * time.Second

// drain asks once more and waits until every byte written is acknowledged
// or the ack stream ends. A Writer that never asked has nothing to drain.
// One that has never heard an answer waits firstAnswerWait or one read
// timeout for the first, and without one returns nil, as Close did before
// acknowledgements: without a drain.
func (win *window) drain() error {
	win.mu.Lock()
	if !win.asked {
		win.mu.Unlock()
		return nil
	}
	win.sent += int64(len(ackRequest))
	win.waiting = time.Now()
	win.mu.Unlock()
	if _, err := win.conn.Write(ackRequest); err != nil {
		return fmt.Errorf("core: ask for acknowledgement: %w", err)
	}
	win.mu.Lock()
	defer win.mu.Unlock()
	if win.acked == 0 {
		deaf := time.AfterFunc(firstAnswerWait, func() {
			win.mu.Lock()
			win.deaf = true
			win.mu.Unlock()
			win.cond.Broadcast()
		})
		defer deaf.Stop()
	}
	for win.acked < win.sent && win.err == nil && !(win.deaf && win.acked == 0) {
		win.cond.Wait()
	}
	switch {
	case win.acked >= win.sent:
		return nil
	case win.acked == 0 && (win.deaf || isTimeout(win.err)):
		return nil // the receiver does not answer
	}
	err := win.err
	if err == io.EOF {
		err = io.ErrUnexpectedEOF // a clean end is not, with bytes outstanding
	}
	return fmt.Errorf("core: %d bytes unacknowledged: %w", win.sent-win.acked, err)
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
