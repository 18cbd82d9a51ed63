package broker

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ccx/internal/codec"
	"ccx/internal/testx"
)

// windowLedger reads a channel's replay window under the channel lock: its
// block count and byte ledger as its gauges show them, and the payload
// bytes summed over the blocks a resume from the start would replay.
func windowLedger(b *Broker, st *channelState) (blocks int, bytes, sum int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	blocks = int(b.met.Gauge("chan." + st.name + ".replay_blocks").Value())
	bytes = b.met.Gauge("chan." + st.name + ".replay_bytes").Value()
	replay, _ := st.plane.ReplayFrom(0)
	for _, e := range replay {
		sum += int64(len(e.Data))
	}
	return blocks, bytes, sum
}

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
// once, in order, byte-identical — served from the frames the window kept,
// without a single encode.
func TestResumeReplaysMissedBlocks(t *testing.T) {
	b := newTestBroker(t, func(c *Config) {
		c.ReplayBlocks = 64
	})
	blocks := make([][]byte, 8)
	for i := range blocks {
		blocks[i] = []byte(fmt.Sprintf("block-%d-payload", i+1))
	}

	// The witness stays attached throughout, so every block is encoded for
	// the None class as it is published, and the window keeps that frame.
	witness := attachSubscriber(t, b, "md")
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
	testx.WaitUntil(t, "dead subscriber detached", func() bool { return b.Subscribers() == 1 })

	for _, blk := range blocks[5:] {
		if err := b.Publish("md", blk); err != nil {
			t.Fatal(err)
		}
	}
	readSeqEvents(t, witness, len(blocks))
	met := b.Metrics()
	encodes, hits := met.Counter("encplane.encodes"), met.Counter("encplane.cache_hits")
	encodes0, hits0 := encodes.Value(), hits.Value()

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

	// The replay ships raw on a pipe this fast, as the witness did: every
	// replayed block is served from the frame the window kept.
	if v := encodes.Value() - encodes0; v != 0 {
		t.Fatalf("encplane.encodes grew by %d across the in-window resume, want 0", v)
	}
	if v := hits.Value() - hits0; v != 5 {
		t.Fatalf("encplane.cache_hits grew by %d across the resume, want 5 (one per replayed block)", v)
	}
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

// TestResumeAtZeroConfigReplays: zero replay bounds mean the defaults, so
// a resume inside the window replays what it missed before joining live.
func TestResumeAtZeroConfigReplays(t *testing.T) {
	b := newTestBroker(t, nil) // both replay bounds zero
	for i := 1; i <= 3; i++ {
		if err := b.Publish("md", []byte(fmt.Sprintf("x%d", i))); err != nil {
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
	if firstSeq != 2 {
		t.Fatalf("firstSeq = %d, want 2 (the default window retains seqs 1-3)", firstSeq)
	}
	if err := b.Publish("md", []byte("live")); err != nil {
		t.Fatal(err)
	}
	got, seqs := readSeqEvents(t, client, 3)
	if string(got[0]) != "x2" || string(got[1]) != "x3" || string(got[2]) != "live" ||
		seqs[0] != 2 || seqs[1] != 3 || seqs[2] != 4 {
		t.Fatalf("events = %q seqs %v, want replayed x2, x3 then live at 4", got, seqs)
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
