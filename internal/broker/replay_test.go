package broker

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ccx/internal/codec"
	"ccx/internal/encplane"
	"ccx/internal/testx"
)

// --- replayRing unit tests ---------------------------------------------

func TestReplayRingZeroValueStampsOnly(t *testing.T) {
	var r replayRing
	if r.enabled() {
		t.Fatal("zero ring reports enabled")
	}
	for i := 1; i <= 3; i++ {
		seq, evB, evBy := r.stamp(encplane.Block{Data: []byte("x")})
		if seq != uint64(i) || evB != 0 || evBy != 0 {
			t.Fatalf("stamp #%d = (%d, %d, %d)", i, seq, evB, evBy)
		}
	}
	if r.len() != 0 {
		t.Fatalf("disabled ring retained %d entries", r.len())
	}
	if got, first := r.replayFrom(1); got != nil || first != 4 {
		t.Fatalf("replayFrom(1) = (%v, %d), want (nil, 4)", got, first)
	}
}

func TestReplayRingBlockBound(t *testing.T) {
	var r replayRing
	r.setBounds(3, 1<<20)
	var evicted int
	for i := 0; i < 5; i++ {
		_, evB, _ := r.stamp(encplane.Block{Data: []byte{byte(i)}})
		evicted += evB
	}
	if evicted != 2 || r.len() != 3 {
		t.Fatalf("evicted %d, len %d; want 2, 3", evicted, r.len())
	}
	replay, first := r.replayFrom(0)
	if first != 3 || len(replay) != 3 {
		t.Fatalf("replayFrom(0) = %d entries from %d, want 3 from 3", len(replay), first)
	}
	for i, e := range replay {
		if e.Seq != uint64(3+i) {
			t.Fatalf("replay[%d].Seq = %d", i, e.Seq)
		}
	}
}

func TestReplayRingByteBound(t *testing.T) {
	var r replayRing
	r.setBounds(1000, 10) // ten payload bytes total
	for i := 0; i < 6; i++ {
		r.stamp(encplane.Block{Data: []byte("abcd")}) // 4 bytes each; at most 2 fit under 10
	}
	if r.len() != 2 || r.bytes != 8 {
		t.Fatalf("len %d bytes %d; want 2, 8", r.len(), r.bytes)
	}
	if _, first := r.replayFrom(0); first != 5 {
		t.Fatalf("firstSeq = %d, want 5", first)
	}
}

func TestReplayRingOversizedBlockNeverRetained(t *testing.T) {
	var r replayRing
	r.setBounds(8, 10)
	r.stamp(encplane.Block{Data: []byte("ok")})
	seq, evB, evBy := r.stamp(encplane.Block{Data: make([]byte, 64)}) // alone exceeds the byte budget
	if seq != 2 {
		t.Fatalf("seq = %d", seq)
	}
	if evB != 1 || evBy != 0 {
		t.Fatalf("oversized stamp evicted (%d, %d), want (1, 0)", evB, evBy)
	}
	// The window skips the oversized block: a resume over it reports it via
	// firstSeq/sequence accounting, never replays it.
	replay, first := r.replayFrom(0)
	if first != 1 || len(replay) != 1 || replay[0].Seq != 1 {
		t.Fatalf("replayFrom(0) = %d entries from %d", len(replay), first)
	}
}

func TestReplayRingCaughtUpAndAbsurdResume(t *testing.T) {
	var r replayRing
	r.setBounds(8, 1<<20)
	for i := 0; i < 4; i++ {
		r.stamp(encplane.Block{Data: []byte("x")})
	}
	if replay, first := r.replayFrom(4); replay != nil || first != 5 {
		t.Fatalf("caught-up resume = (%v, %d), want (nil, 5)", replay, first)
	}
	if replay, first := r.replayFrom(1 << 40); replay != nil || first != 5 {
		t.Fatalf("absurd resume = (%v, %d), want (nil, 5)", replay, first)
	}
}

func TestReplayRingCompaction(t *testing.T) {
	var r replayRing
	r.setBounds(10, 1<<20)
	for i := 0; i < 500; i++ {
		r.stamp(encplane.Block{Data: []byte{byte(i)}})
	}
	if r.len() != 10 {
		t.Fatalf("len = %d, want 10", r.len())
	}
	// Compaction must keep the backing array proportional to the window,
	// not the stream.
	if len(r.entries) > 64 {
		t.Fatalf("backing array grew to %d entries for a 10-block window", len(r.entries))
	}
	replay, first := r.replayFrom(490)
	if first != 491 || len(replay) != 10 {
		t.Fatalf("replayFrom(490) = %d entries from %d", len(replay), first)
	}
}

// --- resume integration over the live broker ---------------------------

// readSeqEvents reads events from a subscriber connection until n data
// frames arrived (heartbeats skipped), returning payloads and sequence
// numbers.
func readSeqEvents(t *testing.T, conn net.Conn, n int) (payloads [][]byte, seqs []uint64) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	fr := codec.NewFrameReader(conn, nil)
	for len(payloads) < n {
		data, info, err := fr.ReadBlock()
		if err != nil {
			t.Fatalf("after %d/%d events: %v", len(payloads), n, err)
		}
		if len(data) == 0 {
			continue
		}
		if !info.HasSeq {
			t.Fatalf("event %d arrived without a sequence number", len(payloads))
		}
		payloads = append(payloads, data)
		seqs = append(seqs, info.Seq)
	}
	return payloads, seqs
}

// TestResumeReplaysMissedBlocks is the acceptance scenario: a subscriber
// consumes part of the stream, its connection dies, more blocks are
// published, and the resumed session delivers every missed block exactly
// once, in order, byte-identical.
func TestResumeReplaysMissedBlocks(t *testing.T) {
	b := newTestBroker(t, func(c *Config) {
		c.ReplayBlocks = 64
	})
	blocks := make([][]byte, 8)
	for i := range blocks {
		blocks[i] = []byte(fmt.Sprintf("block-%d-payload", i+1))
	}

	sub1 := attachSubscriber(t, b, "md")
	for _, blk := range blocks[:5] {
		if err := b.Publish("md", blk); err != nil {
			t.Fatal(err)
		}
	}
	got1, seqs1 := readSeqEvents(t, sub1, 3)
	for i := range got1 {
		if string(got1[i]) != string(blocks[i]) || seqs1[i] != uint64(i+1) {
			t.Fatalf("live event %d = %q seq %d", i, got1[i], seqs1[i])
		}
	}
	sub1.Close() // the outage: connection dies after delivering seq 3
	testx.WaitUntil(t, "dead subscriber detached", func() bool { return b.Subscribers() == 0 })

	for _, blk := range blocks[5:] {
		if err := b.Publish("md", blk); err != nil {
			t.Fatal(err)
		}
	}

	client, server := net.Pipe()
	defer client.Close()
	b.HandleConn(server)
	firstSeq, err := HandshakeResume(client, "md", 3)
	if err != nil {
		t.Fatalf("resume handshake: %v", err)
	}
	if firstSeq != 4 {
		t.Fatalf("firstSeq = %d, want 4 (loss-free resume)", firstSeq)
	}
	got2, seqs2 := readSeqEvents(t, client, 5)
	for i := range got2 {
		want := blocks[3+i]
		if string(got2[i]) != string(want) {
			t.Fatalf("replayed event %d = %q, want %q", i, got2[i], want)
		}
		if seqs2[i] != uint64(4+i) {
			t.Fatalf("replayed seq[%d] = %d, want %d", i, seqs2[i], 4+i)
		}
	}

	met := b.Metrics()
	if v := met.Counter("broker.resumes").Value(); v != 1 {
		t.Fatalf("broker.resumes = %d", v)
	}
	if v := met.Counter("broker.resume_replayed_blocks").Value(); v != 5 {
		t.Fatalf("broker.resume_replayed_blocks = %d", v)
	}
	if v := met.Counter("broker.resume_gaps").Value(); v != 0 {
		t.Fatalf("broker.resume_gaps = %d", v)
	}
}

// TestResumeStraddlesLivePublish interleaves a resume with concurrent
// publishes: the atomic snapshot must hand every block to exactly one of
// replay and live delivery.
func TestResumeStraddlesLivePublish(t *testing.T) {
	b := newTestBroker(t, func(c *Config) {
		c.ReplayBlocks = 1024
		c.QueueLen = 1024
	})
	const total = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			if err := b.Publish("md", []byte(fmt.Sprintf("ev-%04d", i))); err != nil {
				return
			}
		}
	}()

	client, server := net.Pipe()
	defer client.Close()
	b.HandleConn(server)
	firstSeq, err := HandshakeResume(client, "md", 0)
	if err != nil {
		t.Fatalf("resume handshake: %v", err)
	}
	if firstSeq != 1 {
		t.Fatalf("firstSeq = %d, want 1", firstSeq)
	}
	_, seqs := readSeqEvents(t, client, total)
	wg.Wait()
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("seqs[%d] = %d: duplicate or gap across the replay/live boundary", i, s)
		}
	}
}

// TestResumePastWindowReportsGap: a resume point evicted beyond the replay
// window must produce an explicit, counted gap — never a silent skip.
func TestResumePastWindowReportsGap(t *testing.T) {
	b := newTestBroker(t, func(c *Config) {
		c.ReplayBlocks = 2
	})
	for i := 1; i <= 6; i++ {
		if err := b.Publish("md", []byte(fmt.Sprintf("block-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	client, server := net.Pipe()
	defer client.Close()
	b.HandleConn(server)
	firstSeq, err := HandshakeResume(client, "md", 1)
	if err != nil {
		t.Fatalf("resume handshake: %v", err)
	}
	if firstSeq != 5 {
		t.Fatalf("firstSeq = %d, want 5 (window holds only 5,6)", firstSeq)
	}
	got, seqs := readSeqEvents(t, client, 2)
	if string(got[0]) != "block-5" || string(got[1]) != "block-6" || seqs[0] != 5 || seqs[1] != 6 {
		t.Fatalf("replay = %q seqs %v", got, seqs)
	}
	met := b.Metrics()
	if v := met.Counter("broker.resume_gaps").Value(); v != 1 {
		t.Fatalf("broker.resume_gaps = %d", v)
	}
	if v := met.Counter("broker.resume_gap_blocks").Value(); v != 3 {
		t.Fatalf("broker.resume_gap_blocks = %d (blocks 2,3,4 are gone)", v)
	}
	if v := met.Counter("broker.replay_evicted_blocks").Value(); v != 4 {
		t.Fatalf("broker.replay_evicted_blocks = %d", v)
	}
}

// TestResumeWithReplayDisabled: resumes are still accepted, but the session
// can only join live — the whole distance to the stream head is the gap.
func TestResumeWithReplayDisabled(t *testing.T) {
	b := newTestBroker(t, nil) // both replay bounds zero
	for i := 1; i <= 3; i++ {
		if err := b.Publish("md", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	client, server := net.Pipe()
	defer client.Close()
	b.HandleConn(server)
	firstSeq, err := HandshakeResume(client, "md", 1)
	if err != nil {
		t.Fatalf("resume handshake: %v", err)
	}
	if firstSeq != 4 {
		t.Fatalf("firstSeq = %d, want 4 (nothing retained)", firstSeq)
	}
	if err := b.Publish("md", []byte("live")); err != nil {
		t.Fatal(err)
	}
	got, seqs := readSeqEvents(t, client, 1)
	if string(got[0]) != "live" || seqs[0] != 4 {
		t.Fatalf("live event = %q seq %d", got[0], seqs[0])
	}
}

// TestShutdownRacesSubscriberTeardown hammers the attach/teardown paths
// against Shutdown. Run under -race: the regression it guards against is a
// subscriber published in the broker's map before its echo subscription was
// assigned, which let Shutdown dereference a nil subscription.
func TestShutdownRacesSubscriberTeardown(t *testing.T) {
	for round := 0; round < 25; round++ {
		b, err := New(Config{Heartbeat: -1, ReplayBlocks: 8})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for j := 0; j < 4; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				client, server := net.Pipe()
				defer client.Close()
				b.HandleConn(server)
				// Either outcome is fine — attached (then torn down by
				// Shutdown) or refused because the broker closed first.
				if j%2 == 0 {
					_ = HandshakeSubscribe(client, "md")
				} else if _, err := HandshakeResume(client, "md", 0); err == nil {
					// Read whatever the broker manages to send before close.
					client.SetReadDeadline(time.Now().Add(2 * time.Second))
					readAllEvents(client)
				}
			}(j)
		}
		_ = b.Publish("md", []byte("payload"))
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = b.Shutdown(ctx)
		cancel()
		wg.Wait()
	}
}
