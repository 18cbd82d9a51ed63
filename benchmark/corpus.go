package main

import (
	"bytes"
	"encoding/binary"

	"ccx/internal/datagen"
)

const (
	// headerLen is the per-block stamp the generator overwrites: the
	// block's sequence number and its send (or intended-send) instant.
	headerLen = 16
	// corpusBlocks is the length of the looped corpus, half OIS transactions
	// and half XML documents. It is kept this short on purpose: the corpus
	// is live heap, and a sender and receiver that stream hold almost none.
	// With an 8 MiB corpus behind 16 KiB blocks the collector ran a quarter
	// as often as it does for ccsend | ccrecv, and the fast-link workload
	// read twice as fast as the deployment it stands for.
	corpusBlocks = 64
	// oisRepetition matches the repo's pipeline benchmark corpus.
	oisRepetition = 0.9
)

// corpus is the seeded input of one run, cut into blocks. Senders copy a
// block out and stamp it; receivers check every decoded block against it.
type corpus struct {
	blockSize int
	blocks    [][]byte
}

func newCorpus(seed int64, blockSize int) *corpus {
	size := corpusBlocks * blockSize
	data := make([]byte, 0, size)
	data = append(data, datagen.OISTransactions(size/2, oisRepetition, seed)...)
	data = append(data, datagen.XMLDocuments(size-size/2, seed+1)...)
	c := &corpus{blockSize: blockSize}
	for off := 0; off+blockSize <= len(data); off += blockSize {
		c.blocks = append(c.blocks, data[off:off+blockSize])
	}
	return c
}

// block returns the corpus slice that sequence number seq (1-based) carries.
func (c *corpus) block(seq uint64) []byte {
	return c.blocks[(seq-1)%uint64(len(c.blocks))]
}

// fill writes block seq into dst with its stamp: seq, then stampNs (the
// instant latency is timed from, in nanoseconds on the run clock).
func (c *corpus) fill(dst []byte, seq uint64, stampNs int64) {
	copy(dst, c.block(seq))
	binary.LittleEndian.PutUint64(dst[0:8], seq)
	binary.LittleEndian.PutUint64(dst[8:16], uint64(stampNs))
}

// parse reads a decoded block's stamp and reports whether its payload is
// byte-identical to the corpus slice for that sequence number.
func (c *corpus) parse(data []byte) (seq uint64, stampNs int64, intact bool) {
	if len(data) != c.blockSize {
		return 0, 0, false
	}
	seq = binary.LittleEndian.Uint64(data[0:8])
	stampNs = int64(binary.LittleEndian.Uint64(data[8:16]))
	if seq == 0 {
		return seq, stampNs, false
	}
	return seq, stampNs, bytes.Equal(data[headerLen:], c.block(seq)[headerLen:])
}

// oracle checks one receiver's stream: every block byte-identical, in
// order, exactly once. A receiver attached before the first publish must
// see 1, 2, 3, ... with nothing missing, across any number of resumes.
type oracle struct {
	c    *corpus
	next uint64 // the sequence number expected next

	delivered int64 // intact, in order, first time
	corrupt   int64 // payload differs from the corpus
	duplicate int64 // sequence number already seen (or reordered behind)
	missing   int64 // sequence numbers skipped
	// gaps lists skipped ranges [from, to] so a ladder run can attribute
	// losses to the rung that sent them.
	gaps [][2]uint64
}

func newOracle(c *corpus) *oracle { return &oracle{c: c, next: 1} }

// observe checks one decoded block. fresh is true for a block that counts
// as a delivery (intact and next in order, possibly after a gap).
func (o *oracle) observe(data []byte) (seq uint64, stampNs int64, fresh bool) {
	seq, stampNs, intact := o.c.parse(data)
	switch {
	case !intact:
		o.corrupt++
		return seq, stampNs, false
	case seq < o.next:
		o.duplicate++
		return seq, stampNs, false
	case seq > o.next:
		o.missing += int64(seq - o.next)
		o.gaps = append(o.gaps, [2]uint64{o.next, seq - 1})
	}
	o.next = seq + 1
	o.delivered++
	return seq, stampNs, true
}

// finish accounts blocks that were published but never arrived.
func (o *oracle) finish(lastPublished uint64) {
	if lastPublished >= o.next {
		o.missing += int64(lastPublished - o.next + 1)
		o.gaps = append(o.gaps, [2]uint64{o.next, lastPublished})
		o.next = lastPublished + 1
	}
}

func (o *oracle) failed() int64 { return o.corrupt + o.duplicate + o.missing }
