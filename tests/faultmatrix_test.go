package integration

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ccx/internal/broker"
	"ccx/internal/codec"
	"ccx/internal/core"
	"ccx/internal/datagen"
	"ccx/internal/faultnet"
	"ccx/internal/metrics"
	"ccx/internal/netutil"
	"ccx/internal/testx"
)

// TestFaultMatrix runs the full publish path — ccsend-style frame writer →
// TCP → broker → per-subscriber adaptation → ccrecv-style frame reader —
// under a matrix of injected link faults. Whatever the link does, the
// invariants hold: no panic, no goroutine leak, every delivered block is
// byte-identical to its original, and checksum-detectable damage shows up
// in the broker.corrupt_frames counter.
func TestFaultMatrix(t *testing.T) {
	const (
		nBlocks   = 48
		blockSize = 16 << 10
	)
	blocks := make([][]byte, nBlocks)
	for i := range blocks {
		b := datagen.OISTransactions(blockSize, 0.9, int64(i+1))
		binary.BigEndian.PutUint32(b[:4], uint32(i))
		blocks[i] = b
	}

	cases := []struct {
		name string
		plan faultnet.Plan
		// wantAll: every block must arrive (the fault damages nothing).
		wantAll bool
		// wantCorrupt: the broker must count at least one corrupt frame.
		wantCorrupt bool
		// wantPubErr: the publisher's own writes are allowed to fail.
		wantPubErr bool
	}{
		{name: "clean", wantAll: true},
		{name: "bitflip_per_64k", plan: faultnet.Plan{FlipPer: 64 << 10, Seed: 7}, wantCorrupt: true},
		{name: "midstream_truncation", plan: faultnet.Plan{DropAt: 100 << 10, DropLen: 1500, Seed: 3}, wantCorrupt: true},
		{name: "midframe_stall", plan: faultnet.Plan{StallAt: 200 << 10, Stall: 250 * time.Millisecond, Seed: 5}, wantAll: true},
		{name: "abrupt_reset", plan: faultnet.Plan{ResetAt: 256 << 10, Seed: 9}, wantPubErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			guard := testx.GoroutineGuard(t, 0)

			met := metrics.NewRegistry()
			b, err := broker.New(broker.Config{
				Channels:  []string{"md"},
				Heartbeat: -1,
				Metrics:   met,
				Logf:      func(string, ...any) {},
			})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			serveDone := make(chan error, 1)
			go func() { serveDone <- b.Serve(ln) }()

			// Subscriber: collect delivered blocks by their stamped index.
			subConn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer subConn.Close()
			if err := broker.HandshakeSubscribe(subConn, "md"); err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			got := make(map[uint32][]byte)
			subDone := make(chan struct{})
			go func() {
				defer close(subDone)
				fr := codec.NewFrameReader(subConn, nil)
				for {
					data, _, err := fr.ReadBlock()
					if err != nil {
						return
					}
					if len(data) < 4 {
						continue // keepalive
					}
					mu.Lock()
					got[binary.BigEndian.Uint32(data[:4])] = append([]byte(nil), data...)
					mu.Unlock()
				}
			}()
			received := func() int {
				mu.Lock()
				defer mu.Unlock()
				return len(got)
			}

			// Publisher: handshake on the clean conn, then every frame goes
			// through the fault plan.
			pubConn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			if err := broker.HandshakePublish(pubConn, "md"); err != nil {
				t.Fatal(err)
			}
			pub := faultnet.Wrap(pubConn, tc.plan)
			var pubErr error
			for _, block := range blocks {
				frame, _, err := codec.AppendFrameOpts(nil, nil, codec.None, block, codec.FrameOpts{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := pub.Write(frame); err != nil {
					pubErr = err
					break
				}
			}
			pub.Close()

			// The publisher is done; wait for the broker's intake to go
			// quiet and the subscriber to catch up with everything ingested.
			eventsIn := met.Counter("broker.events_in")
			deadline := time.Now().Add(10 * time.Second)
			for {
				if time.Now().After(deadline) {
					t.Fatalf("delivery never settled: %d ingested, %d received",
						eventsIn.Value(), received())
				}
				before := eventsIn.Value()
				time.Sleep(75 * time.Millisecond)
				if eventsIn.Value() == before && int64(received()) == before {
					break
				}
			}

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := b.Shutdown(ctx); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			if err := <-serveDone; err != nil {
				t.Fatalf("serve: %v", err)
			}
			select {
			case <-subDone:
			case <-time.After(5 * time.Second):
				t.Fatal("subscriber loop never ended after shutdown")
			}
			testx.DumpMetrics(t, tc.name, met)

			// Delivered blocks must be byte-identical to their originals —
			// corruption may drop blocks, never alter them.
			mu.Lock()
			for idx, data := range got {
				if int(idx) >= len(blocks) {
					t.Fatalf("delivered unknown block index %d", idx)
				}
				testx.ByteIdentity(t, fmt.Sprintf("block %d", idx), data, blocks[idx])
			}
			n := len(got)
			mu.Unlock()

			if tc.wantAll && n != nBlocks {
				t.Fatalf("delivered %d of %d blocks over a lossless plan", n, nBlocks)
			}
			if !tc.wantAll && n == 0 {
				t.Fatal("fault plan destroyed every single block")
			}
			corrupt := met.Counter("broker.corrupt_frames").Value()
			if tc.wantCorrupt && corrupt == 0 {
				t.Fatal("corrupt frames reached the broker but the counter stayed 0")
			}
			if !tc.wantCorrupt && !tc.wantPubErr && corrupt != 0 {
				t.Fatalf("unexpected corrupt frames: %d", corrupt)
			}
			if tc.wantPubErr {
				if !errors.Is(pubErr, faultnet.ErrInjectedReset) {
					t.Fatalf("publisher error = %v, want injected reset", pubErr)
				}
			} else if pubErr != nil {
				t.Fatalf("publisher failed: %v", pubErr)
			}

			// Everything the run spawned — serve loop, broker sessions,
			// subscriber reader — must be gone.
			guard()
		})
	}
}

// TestReconnectResume runs the resumable-session path under link faults:
// the subscriber's first connection dies (abrupt TCP reset mid-stream, or
// a mid-frame stall caught by a read watchdog), and the redial resumes
// with the last contiguously delivered sequence. Invariants: every block
// arrives exactly once, in order, byte-identical; zero duplicate sequences
// reach the consumer; and when the replay window cannot cover the outage
// the gap is explicit — counted on both broker and receiver — never a
// silent skip.
func TestReconnectResume(t *testing.T) {
	const (
		nBlocks   = 48
		blockSize = 16 << 10
	)
	blocks := make([][]byte, nBlocks)
	for i := range blocks {
		b := datagen.OISTransactions(blockSize, 0.9, int64(100+i))
		blocks[i] = b
	}

	cases := []struct {
		name string
		// plan shapes the subscriber's FIRST connection; redials are clean.
		plan faultnet.Plan
		// watchdog is the subscriber's rolling read deadline (0 = none).
		watchdog time.Duration
		// replayBlocks bounds the broker's replay window.
		replayBlocks int
		// wantGap: the window cannot cover the resume point; expect an
		// explicit gap instead of full delivery.
		wantGap bool
	}{
		{
			name:         "abrupt_reset_midstream",
			plan:         faultnet.Plan{ResetAt: 96 << 10, Seed: 11},
			replayBlocks: 256,
		},
		{
			name:         "midframe_stall_watchdog",
			plan:         faultnet.Plan{StallAt: 96 << 10, Stall: 5 * time.Second, Seed: 13},
			watchdog:     400 * time.Millisecond,
			replayBlocks: 256,
		},
		{
			name:         "window_overflow_reports_gap",
			plan:         faultnet.Plan{}, // no fault: the gap comes from the tiny window
			replayBlocks: 4,
			wantGap:      true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			met := metrics.NewRegistry()
			b, err := broker.New(broker.Config{
				Channels:     []string{"md"},
				Heartbeat:    -1,
				ReplayBlocks: tc.replayBlocks,
				ReplayBytes:  64 << 20,
				Metrics:      met,
				Logf:         func(string, ...any) {},
			})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			serveDone := make(chan error, 1)
			go func() { serveDone <- b.Serve(ln) }()

			// Publish the whole stream up front: the replay window is the
			// only path to the early blocks, exactly the resume scenario.
			for _, blk := range blocks {
				if err := b.Publish("md", blk); err != nil {
					t.Fatal(err)
				}
			}

			// Subscriber: resume-dial until the stream is complete, applying
			// the fault plan to the first connection only (one outage).
			track := new(core.DeliveryTracker)
			delivered := make(map[uint64][]byte)
			deliveredOrder := []uint64{}
			var dupDelivered int
			var gapFromHandshake uint64
			wantLast := uint64(nBlocks)
			for attempt := 0; attempt < 10; attempt++ {
				if last, ok := track.LastDelivered(); ok && last >= wantLast {
					break
				}
				err := func() error {
					conn, err := net.Dial("tcp", ln.Addr().String())
					if err != nil {
						return err
					}
					defer conn.Close()
					var link net.Conn = conn
					if attempt == 0 && (tc.plan.ResetAt > 0 || tc.plan.StallAt > 0) {
						link = faultnet.Wrap(conn, tc.plan)
					}
					last, _ := track.LastDelivered()
					firstSeq, err := broker.HandshakeResume(link, "md", last)
					if err != nil {
						return err
					}
					if firstSeq > last+1 {
						gap := firstSeq - last - 1
						gapFromHandshake += gap
						track.NoteGap(gap)
						track.SkipTo(firstSeq)
					}
					fr := codec.NewFrameReader(netutil.WithTimeouts(link, tc.watchdog, 0), nil)
					for {
						data, info, err := fr.ReadBlock()
						if err != nil {
							return err
						}
						if len(data) == 0 {
							continue
						}
						if !info.HasSeq {
							t.Fatal("broker delivered an unsequenced event")
						}
						deliver, _ := track.Observe(info.Seq)
						if !deliver {
							continue
						}
						if _, seen := delivered[info.Seq]; seen {
							dupDelivered++
						}
						delivered[info.Seq] = append([]byte(nil), data...)
						deliveredOrder = append(deliveredOrder, info.Seq)
						if info.Seq >= wantLast {
							return nil
						}
					}
				}()
				if err == nil {
					break
				}
			}

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := b.Shutdown(ctx); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			if err := <-serveDone; err != nil {
				t.Fatalf("serve: %v", err)
			}
			testx.DumpMetrics(t, "reconnect_"+tc.name, met)

			// Exactly-once: no sequence may reach the consumer twice, and
			// the delivered order must be strictly increasing.
			if dupDelivered != 0 {
				t.Fatalf("%d duplicate sequences delivered", dupDelivered)
			}
			for i := 1; i < len(deliveredOrder); i++ {
				if deliveredOrder[i] <= deliveredOrder[i-1] {
					t.Fatalf("out-of-order delivery: seq %d after %d",
						deliveredOrder[i], deliveredOrder[i-1])
				}
			}
			// Byte-identity for everything delivered.
			for seq, data := range delivered {
				testx.ByteIdentity(t, fmt.Sprintf("block seq %d", seq), data, blocks[seq-1])
			}

			st := track.Stats()
			if tc.wantGap {
				if gapFromHandshake == 0 || st.GapBlocks == 0 {
					t.Fatal("window overflow produced no explicit gap")
				}
				if met.Counter("broker.resume_gaps").Value() == 0 {
					t.Fatal("broker.resume_gaps stayed 0 across a window overflow")
				}
				// Everything still inside the window must have arrived.
				if gapFromHandshake+uint64(len(delivered)) != nBlocks {
					t.Fatalf("gap %d + delivered %d != %d blocks",
						gapFromHandshake, len(delivered), nBlocks)
				}
			} else {
				// The window covered the outage: loss-free, every block once.
				if len(delivered) != nBlocks {
					t.Fatalf("delivered %d of %d blocks across the reconnect",
						len(delivered), nBlocks)
				}
				if st.GapBlocks != 0 {
					t.Fatalf("tracker reports %d lost blocks on a loss-free resume", st.GapBlocks)
				}
				if met.Counter("broker.resumes").Value() == 0 {
					t.Fatal("no resume handshake was counted")
				}
			}
		})
	}
}
