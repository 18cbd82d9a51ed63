package integration

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"ccx/internal/arith"
	"ccx/internal/broker"
	"ccx/internal/codec"
	"ccx/internal/core"
	"ccx/internal/datagen"
	"ccx/internal/faultnet"
	"ccx/internal/metrics"
	"ccx/internal/selector"
	"ccx/internal/testx"
)

// pinPolicy pins the method selector to one codec, so each matrix cell
// exercises exactly one (placement, method) combination regardless of what
// the adaptive algorithm would choose.
type pinPolicy struct{ m codec.Method }

func (p pinPolicy) Name() string { return "pin:" + p.m.String() }
func (p pinPolicy) Select(in selector.Inputs) selector.Decision {
	return selector.Decision{Method: p.m, Inputs: in, LZReduceTime: in.LZReduceTime()}
}

// allCodecs is the built-in registry plus arithmetic coding: a method-matrix
// cell for arithmetic registers it on every end — publisher, broker and
// subscriber — the way any deployment that wants it must.
func allCodecs() *codec.Registry {
	reg := codec.NewRegistry()
	reg.Register(codec.NewFuncCodec(codec.Arithmetic, arith.Compress, arith.Decompress))
	return reg
}

// placementFilter honors the CCX_PLACEMENT environment variable, which CI's
// placement matrix sets to run one placement's cells per job. Empty runs
// everything.
func placementFilter(t *testing.T, pl selector.Placement) {
	t.Helper()
	if want := os.Getenv("CCX_PLACEMENT"); want != "" && want != pl.String() {
		t.Skipf("CCX_PLACEMENT=%s filters out %s", want, pl)
	}
}

// TestPlacementEquivalence is the placement × method break-even battery's
// correctness half: for every compression placement (publisher, broker,
// receiver) crossed with every §2 codec method, the delivered bytes must be
// identical to the published bytes — placement moves *where* compression
// runs, never *what* arrives. Each cell runs the full wire path
// (publisher frames → TCP → broker → shared encode plane → subscriber)
// under a rotating faultnet plan (clean, bit flips, mid-frame stall, abrupt
// reset), so the identity also holds mid-chaos: faults may drop blocks,
// never alter them.
func TestPlacementEquivalence(t *testing.T) {
	const (
		nBlocks   = 24
		blockSize = 16 << 10
	)
	blocks := make([][]byte, nBlocks)
	for i := range blocks {
		b := datagen.OISTransactions(blockSize, 0.9, int64(i+1))
		binary.BigEndian.PutUint32(b[:4], uint32(i))
		blocks[i] = b
	}

	methods := []codec.Method{
		codec.None, codec.Huffman, codec.Arithmetic, codec.LempelZiv, codec.BurrowsWheeler,
	}
	placements := []selector.Placement{
		selector.PlacementPublisher, selector.PlacementBroker, selector.PlacementReceiver,
	}
	plans := []struct {
		name string
		plan faultnet.Plan
		// wantAll: lossless plan, every block must arrive.
		wantAll bool
		// wantPubErr: the publisher's own writes are allowed to fail.
		wantPubErr bool
	}{
		{name: "clean", wantAll: true},
		{name: "bitflip", plan: faultnet.Plan{FlipPer: 64 << 10, Seed: 7}},
		{name: "stall", plan: faultnet.Plan{StallAt: 128 << 10, Stall: 200 * time.Millisecond, Seed: 5}, wantAll: true},
		// The reset offset sits well under the stream's most compressed wire
		// size (~60 KiB at BWT for these blocks), so the reset fires whether
		// the publisher ships raw or compressed.
		{name: "reset", plan: faultnet.Plan{ResetAt: 48 << 10, Seed: 9}, wantPubErr: true},
	}

	combo := 0
	for _, pl := range placements {
		for _, m := range methods {
			tc := plans[combo%len(plans)]
			combo++
			name := fmt.Sprintf("%s/%s/%s", pl, m, tc.name)
			t.Run(name, func(t *testing.T) {
				placementFilter(t, pl)
				met := metrics.NewRegistry()
				cfg := broker.Config{
					Channels:  []string{"md"},
					Heartbeat: -1,
					Placement: pl,
					Metrics:   met,
					Logf:      func(string, ...any) {},
				}
				cfg.Engine.Selector = selector.DefaultConfig()
				cfg.Engine.Selector.BlockSize = blockSize
				cfg.Engine.Policy = pinPolicy{m}
				cfg.Engine.Registry = allCodecs()
				b, err := broker.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				serveDone := make(chan error, 1)
				go func() { serveDone <- b.Serve(ln) }()

				// Subscriber: collect delivered blocks by stamped index, and
				// keep each frame's wire method — receiver placement must ship
				// everything raw.
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
				var wireMethods []codec.Method
				subDone := make(chan struct{})
				go func() {
					defer close(subDone)
					fr := codec.NewFrameReader(subConn, cfg.Engine.Registry)
					for {
						data, info, err := fr.ReadBlock()
						if err != nil {
							return
						}
						if len(data) < 4 {
							continue // keepalive
						}
						mu.Lock()
						got[binary.BigEndian.Uint32(data[:4])] = append([]byte(nil), data...)
						wireMethods = append(wireMethods, info.Method)
						mu.Unlock()
					}
				}()
				received := func() int {
					mu.Lock()
					defer mu.Unlock()
					return len(got)
				}

				// Publisher half of the placement: publisher-side compression
				// ships frames already encoded with the cell's method; broker-
				// and receiver-side placement ship raw (None) frames and leave
				// compression to the downstream hop (or nobody).
				pubMethod := codec.None
				if pl == selector.PlacementPublisher {
					pubMethod = m
				}
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
					frame, _, err := codec.AppendFrameOpts(nil, cfg.Engine.Registry, pubMethod, block, codec.FrameOpts{})
					if err != nil {
						t.Fatal(err)
					}
					if _, err := pub.Write(frame); err != nil {
						pubErr = err
						break
					}
				}
				pub.Close()

				// Wait for intake to go quiet and the subscriber to catch up.
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

				// The invariant: every delivered block byte-identical.
				mu.Lock()
				for idx, data := range got {
					if int(idx) >= len(blocks) {
						t.Fatalf("delivered unknown block index %d", idx)
					}
					testx.ByteIdentity(t, fmt.Sprintf("block %d", idx), data, blocks[idx])
				}
				n := len(got)
				methodsSeen := append([]codec.Method(nil), wireMethods...)
				mu.Unlock()

				if tc.wantAll && n != nBlocks {
					t.Fatalf("delivered %d of %d blocks over a lossless plan", n, nBlocks)
				}
				if n == 0 {
					t.Fatal("fault plan destroyed every single block")
				}
				// Receiver placement ships raw end to end: no frame toward the
				// subscriber may carry a compressed method.
				if pl == selector.PlacementReceiver {
					for i, wm := range methodsSeen {
						if wm != codec.None {
							t.Fatalf("frame %d shipped as %s under receiver placement", i, wm)
						}
					}
					if met.Counter("ccx.tx_placement.receiver").Value() == 0 {
						t.Fatal("ccx.tx_placement.receiver counter stayed 0")
					}
				}
				if tc.wantPubErr {
					if !errors.Is(pubErr, faultnet.ErrInjectedReset) {
						t.Fatalf("publisher error = %v, want injected reset", pubErr)
					}
				} else if pubErr != nil {
					t.Fatalf("publisher failed: %v", pubErr)
				}
			})
		}
	}
}

// TestPlacementResumeEquivalence runs the resumable-session path once per
// placement: the stream is published up front, a subscriber resumes from
// zero with an advertised placement, and the replay (served from the
// broker's replay ring through the shared frame cache) must deliver every
// block exactly once, byte-identical, in order — with receiver placement
// additionally shipping every replayed frame raw.
func TestPlacementResumeEquivalence(t *testing.T) {
	const (
		nBlocks   = 24
		blockSize = 16 << 10
	)
	blocks := make([][]byte, nBlocks)
	for i := range blocks {
		blocks[i] = datagen.OISTransactions(blockSize, 0.9, int64(200+i))
	}
	for _, pl := range []selector.Placement{
		selector.PlacementPublisher, selector.PlacementBroker, selector.PlacementReceiver,
	} {
		t.Run(pl.String(), func(t *testing.T) {
			placementFilter(t, pl)
			met := metrics.NewRegistry()
			cfg := broker.Config{
				Channels:     []string{"md"},
				Heartbeat:    -1,
				ReplayBlocks: nBlocks * 2,
				ReplayBytes:  64 << 20,
				Metrics:      met,
				Logf:         func(string, ...any) {},
			}
			cfg.Engine.Selector = selector.DefaultConfig()
			cfg.Engine.Selector.BlockSize = blockSize
			cfg.Engine.Policy = pinPolicy{codec.LempelZiv}
			b, err := broker.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			serveDone := make(chan error, 1)
			go func() { serveDone <- b.Serve(ln) }()
			for _, blk := range blocks {
				if err := b.Publish("md", blk); err != nil {
					t.Fatal(err)
				}
			}

			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			// The resume hello advertises this session's placement;
			// the whole replay backlog must honor it.
			firstSeq, err := broker.HandshakeResumePlacement(conn, "md", 0, pl)
			if err != nil {
				t.Fatal(err)
			}
			if firstSeq != 1 {
				t.Fatalf("firstSeq = %d, want 1", firstSeq)
			}
			track := new(core.DeliveryTracker)
			delivered := make(map[uint64][]byte)
			var order []uint64
			fr := codec.NewFrameReader(conn, nil)
			for len(delivered) < nBlocks {
				data, info, err := fr.ReadBlock()
				if err != nil {
					t.Fatalf("replay read after %d blocks: %v", len(delivered), err)
				}
				if len(data) == 0 {
					continue
				}
				if !info.HasSeq {
					t.Fatal("broker delivered an unsequenced event")
				}
				if pl == selector.PlacementReceiver && info.Method != codec.None {
					t.Fatalf("replayed seq %d shipped as %s under receiver placement",
						info.Seq, info.Method)
				}
				deliver, _ := track.Observe(info.Seq)
				if !deliver {
					t.Fatalf("duplicate seq %d in replay", info.Seq)
				}
				delivered[info.Seq] = append([]byte(nil), data...)
				order = append(order, info.Seq)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := b.Shutdown(ctx); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			if err := <-serveDone; err != nil {
				t.Fatalf("serve: %v", err)
			}

			for i := 1; i < len(order); i++ {
				if order[i] <= order[i-1] {
					t.Fatalf("out-of-order replay: seq %d after %d", order[i], order[i-1])
				}
			}
			for seq, data := range delivered {
				testx.ByteIdentity(t, fmt.Sprintf("block seq %d", seq), data, blocks[seq-1])
			}
			if st := track.Stats(); st.GapBlocks != 0 {
				t.Fatalf("%d blocks lost on an in-window resume", st.GapBlocks)
			}
		})
	}
}
