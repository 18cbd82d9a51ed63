package core

import (
	"errors"
	"runtime"
	"sync"
	"time"
)

// Pipeline runs the engine's per-block loop on a bounded worker pool: each
// worker runs the encode step (Engine.Decide plus the frame encode) on its
// own block while a sequencer hands the finished frames to one sink strictly
// in submission order. Fed to a transport, the stream is byte-identical to
// the sequential Session's output for the same sequence of method decisions
// — sequence numbers, the broker's replay ring, and resume semantics are
// all untouched, because nothing downstream can tell the frames were
// compressed out of order.
//
// The paper treats compression CPU cost as the bottleneck that forces the
// selector toward weaker methods; block-structured formats parallelize
// trivially (each block's code tables are self-contained), so on multi-core
// senders the pipeline multiplies the available "reducing speed" without
// changing what crosses the wire.
//
// Concurrency contract: Submit and Close are single-owner calls — one
// goroutine drives the pipeline, the internal workers provide parallelism
// (matching io.Writer convention). Err may be called from anywhere.
//
// Buffer ownership: Submit does NOT copy the block; the caller must not
// mutate it until the sink has seen it or Close returned. Each frame is
// encoded into a pooled buffer that the worker hands, through the
// sequencer, to the sink together with its ownership (see Sink).
//
// Probing: each worker's Decide takes its block's probe exactly as the
// sequential loop does — a fresh measurement, or, while the line outruns the
// codec, the engine's remembered one (see the probe gate in engine.go; its
// state is shared by all workers). This is where the paper's overlap of
// probe and send lives: workers probe and encode later blocks while the sink
// sends earlier ones, and probe cost parallelizes along with the encode.
type Pipeline struct {
	e       *Engine
	sink    Sink
	workers int
	bufs    *sync.Pool // *[]byte frame buffers

	jobs  chan pipeJob
	order chan chan pipeResult
	done  chan struct{}
	wg    sync.WaitGroup

	mu     sync.Mutex
	err    error
	closed bool
	index  int // ordinal of the next submitted block
}

// Encoded is one finished block on its way to the sink.
type Encoded struct {
	// Job is the submission, Ctx included, as Submit received it (plus the
	// trace context and sequence number stamped when this pipeline is the
	// trace origin).
	Job Job
	// Result is the encode outcome. SendTime is the sink's to fill in.
	Result BlockResult
	// Buf is the pooled buffer the frame was encoded into; *Buf is the
	// complete frame.
	Buf *[]byte
}

// Sink consumes finished blocks in submission order, on the sequencer
// goroutine (so it must not stall the stream for long). The frame buffer
// arrives with its ownership: the pipeline never touches enc.Buf again.
// Returning keep=false hands it back for reuse — the sink must then not
// retain *enc.Buf; keep=true leaves it with the sink, which returns it to the
// pipeline's pool whenever it is done with the frame. An error latches the
// pipeline: later blocks are drained without reaching the sink.
type Sink func(enc Encoded) (keep bool, err error)

type pipeJob struct {
	Job
	index int
	out   chan pipeResult
}

type pipeResult struct {
	enc Encoded
	err error
}

// ErrPipelineClosed reports Submit after Close.
var ErrPipelineClosed = errors.New("core: pipeline is closed")

// NewPipeline starts a pipeline over e that delivers finished frames to
// sink. workers <= 0 means GOMAXPROCS. Frame buffers are drawn from bufs, a
// pool of *[]byte the caller shares with whatever its sink does with kept
// buffers; nil gives the pipeline a pool of its own.
func NewPipeline(e *Engine, workers int, bufs *sync.Pool, sink Sink) *Pipeline {
	return newPipeline(e, workers, 0, bufs, sink)
}

func newPipeline(e *Engine, workers, baseIndex int, bufs *sync.Pool, sink Sink) *Pipeline {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if bufs == nil {
		bufs = &sync.Pool{New: func() any { return new([]byte) }}
	}
	p := &Pipeline{
		e:       e,
		sink:    sink,
		workers: workers,
		bufs:    bufs,
		jobs:    make(chan pipeJob),
		order:   make(chan chan pipeResult, workers*2),
		done:    make(chan struct{}),
		index:   baseIndex,
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	go p.emit()
	return p
}

// sendSink is the Sink of a pipeline that feeds a transport: transmit each
// frame (timing it into the goodput monitor and telemetry), report the
// block to onBlock when non-nil, and hand the buffer back.
func (e *Engine) sendSink(send SendFunc, onBlock func(BlockResult)) Sink {
	return func(enc Encoded) (bool, error) {
		if err := e.transmit(*enc.Buf, send, &enc.Job, &enc.Result); err != nil {
			return false, err
		}
		if onBlock != nil {
			onBlock(enc.Result)
		}
		return false, nil
	}
}

// Submit enqueues one block for compression and in-order delivery to the
// sink. Submit is asynchronous; errors from earlier blocks surface on later
// Submits or on Close.
func (p *Pipeline) Submit(j Job) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPipelineClosed
	}
	if p.err != nil {
		err := p.err
		p.mu.Unlock()
		return err
	}
	job := pipeJob{Job: j, index: p.index, out: make(chan pipeResult, 1)}
	p.index++
	p.mu.Unlock()
	// Origin sampling happens here, before the job races the worker pool.
	p.e.stamp(&job.Job, job.index)
	if ins := p.e.tx; ins != nil {
		ins.pipeDepth.Add(1)
	}
	// The order channel fixes the emission sequence before the job races
	// the worker pool; its bound (2×workers) is the pipeline depth.
	p.order <- job.out
	p.jobs <- job
	return nil
}

// Err returns the first compression or sink error, if any.
func (p *Pipeline) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Close waits for every submitted block to be compressed and delivered,
// stops the workers, and returns the first error encountered. It is
// idempotent.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	if p.closed {
		err := p.err
		p.mu.Unlock()
		return err
	}
	p.closed = true
	p.mu.Unlock()
	close(p.jobs)
	p.wg.Wait()
	close(p.order)
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// worker runs the encode step on one block at a time, into a pooled buffer.
func (p *Pipeline) worker() {
	defer p.wg.Done()
	for job := range p.jobs {
		enc := Encoded{
			Job:    job.Job,
			Result: BlockResult{Index: job.index, Workers: p.workers},
			Buf:    p.bufs.Get().(*[]byte),
		}
		frame, err := p.e.Encode((*enc.Buf)[:0], &enc.Job, &enc.Result)
		*enc.Buf = frame // keeps the larger array when the encode outgrew the pooled one
		job.out <- pipeResult{enc: enc, err: err}
	}
}

// emit is the sequencer: it drains results strictly in submission order and
// hands each to the sink. After the first error the remaining in-flight
// results are drained without reaching the sink.
func (p *Pipeline) emit() {
	defer close(p.done)
	for out := range p.order {
		waitStart := time.Now()
		r := <-out
		r.enc.Result.PipelineWait = time.Since(waitStart)
		if ins := p.e.tx; ins != nil {
			ins.pipeDepth.Add(-1)
			ins.pipeWait.ObserveDuration(r.enc.Result.PipelineWait)
		}
		p.mu.Lock()
		if p.err == nil {
			p.err = r.err
		}
		failed := p.err != nil
		p.mu.Unlock()
		keep := false
		if !failed {
			var err error
			if keep, err = p.sink(r.enc); err != nil {
				p.mu.Lock()
				p.err = err
				p.mu.Unlock()
			}
		}
		if !keep {
			p.bufs.Put(r.enc.Buf)
		}
	}
}

// streamPipelined is StreamBlocks' parallel path: it feeds the pre-cut
// blocks through a fresh pipeline and collects the in-order results.
func (s *Session) streamPipelined(blocks [][]byte, send SendFunc, onBlock func(BlockResult)) ([]BlockResult, error) {
	results := make([]BlockResult, 0, len(blocks))
	p := newPipeline(s.e, s.e.workers, s.index, nil, s.e.sendSink(send, func(r BlockResult) {
		results = append(results, r)
		if onBlock != nil {
			onBlock(r)
		}
	}))
	for _, block := range blocks {
		if err := p.Submit(Job{Block: block}); err != nil {
			break // the first error also comes out of Close
		}
	}
	err := p.Close()
	s.index += len(results)
	return results, err
}
