package main

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"time"

	"ccx/internal/codec"
	"ccx/internal/core"
	"ccx/internal/encplane"
	"ccx/internal/sampling"
	"ccx/internal/selector"
)

// Layer replays run one layer alone over the run's own corpus (its 64
// blocks, at the workload's block size). The work is fixed, so the numbers
// do not move when the selector's method mix does. They run after the
// traced pass, with nothing else going on in the process.

// replayRounds repeats the cheap replays (framing, probe) so a few
// microseconds of work are not timed once.
const replayRounds = 8

func replayInput(c *corpus) [][]byte {
	blocks := make([][]byte, len(c.blocks))
	for i := range blocks {
		blocks[i] = make([]byte, c.blockSize)
		c.fill(blocks[i], uint64(i+1), 0)
	}
	return blocks
}

// replayCodec times codec.Compress and codec.Decompress for one method.
func replayCodec(prefix string, m codec.Method, blocks [][]byte, out map[string]float64) error {
	var appBytes, wireBytes int
	encoded := make([][]byte, len(blocks))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	start := time.Now()
	for i, b := range blocks {
		enc, err := codec.Compress(m, b)
		if err != nil {
			return err
		}
		encoded[i] = enc
		appBytes += len(b)
		wireBytes += len(enc)
	}
	encodeS := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms)
	mallocs = ms.Mallocs - mallocs

	start = time.Now()
	for i, enc := range encoded {
		dec, err := codec.Decompress(m, enc, len(blocks[i]))
		if err != nil {
			return err
		}
		if !bytes.Equal(dec, blocks[i]) {
			return errCorruptReplay
		}
	}
	decodeS := time.Since(start).Seconds() // includes the comparison, a memcmp per block

	out[prefix+".encode_mb_s"] = float64(appBytes) / 1e6 / encodeS
	out[prefix+".decode_mb_s"] = float64(appBytes) / 1e6 / decodeS
	out[prefix+".encode_allocs_per_block"] = float64(mallocs) / float64(len(blocks))
	out[prefix+".ratio"] = float64(wireBytes) / float64(appBytes)
	return nil
}

// replayFraming times AppendFrameOpts and FrameReader.ReadBlock with
// method none: the fixed per-block cost every frame pays. Each is the
// median over replayRounds passes, so a cold first pass does not decide it.
func replayFraming(blocks [][]byte, out map[string]float64) error {
	var frame []byte
	var stream bytes.Buffer
	n := float64(len(blocks))
	var appendNs, parseNs []float64
	for round := 0; round < replayRounds; round++ {
		start := time.Now()
		for i, b := range blocks {
			var err error
			frame, _, err = codec.AppendFrameOpts(frame[:0], nil, codec.None, b, codec.FrameOpts{Seq: uint64(i + 1), HasSeq: true})
			if err != nil {
				return err
			}
			if round == 0 {
				stream.Write(frame)
			}
		}
		if round > 0 { // round 0 also builds the stream to parse
			appendNs = append(appendNs, float64(time.Since(start))/n)
		}
	}
	for round := 0; round < replayRounds; round++ {
		fr := codec.NewFrameReader(bytes.NewReader(stream.Bytes()), nil)
		start := time.Now()
		for range blocks {
			if _, _, err := fr.ReadBlock(); err != nil {
				return err
			}
		}
		parseNs = append(parseNs, float64(time.Since(start))/n)
	}
	out["codec.frame_append_ns"] = median(appendNs)
	out["codec.frame_parse_ns"] = median(parseNs)
	return nil
}

// replayProbe times the 4 KB sampling probe on each block.
func replayProbe(blocks [][]byte, out map[string]float64) {
	var smp sampling.Sampler
	var us []float64
	for round := 0; round < replayRounds; round++ {
		for _, b := range blocks {
			start := time.Now()
			smp.Probe(b)
			us = append(us, float64(time.Since(start))/1e3)
		}
	}
	out["sampling.probe_us_p50"] = median(us)
}

// replayEncplane times Channel.Publish → last delivery with four
// in-memory members in two classes (none, lempel-ziv), two members each:
// the fan-out workloads' shape without sockets or queues.
func replayEncplane(blocks [][]byte, out map[string]float64) error {
	sel := selector.DefaultConfig()
	sel.BlockSize = brokerBlockHint
	plane, err := encplane.New(encplane.Config{Engine: core.Config{Selector: sel}, Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		return err
	}
	defer plane.Close()
	ch := plane.Channel("replay")
	var pending atomic.Int32
	last := make(chan struct{}, 1)
	deliver := func(d encplane.Delivery) bool {
		d.Frame.Release()
		if pending.Add(-1) == 0 {
			last <- struct{}{}
		}
		return true
	}
	for _, m := range []codec.Method{codec.None, codec.None, codec.LempelZiv, codec.LempelZiv} {
		defer ch.Join(m, deliver).Leave()
	}
	var us []float64
	for i, b := range blocks {
		pending.Store(fanoutSubs)
		start := time.Now()
		ch.Publish(b, uint64(i+1))
		<-last
		us = append(us, float64(time.Since(start))/1e3)
	}
	out["encplane.publish_us_p50"] = median(us)
	return nil
}
