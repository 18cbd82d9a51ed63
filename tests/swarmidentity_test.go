package integration

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ccx/internal/broker"
	"ccx/internal/codec"
	"ccx/internal/datagen"
	"ccx/internal/faultnet"
	"ccx/internal/metrics"
	"ccx/internal/selector"
	"ccx/internal/testx"
)

// runSwarmCell runs one (method, placement, fault-plan) cell: a publisher
// writes blocks through the fault plan, two subscribers decode what the
// broker fans out, and the broker is shut down, which drains every ingested
// block to both before hanging up. It returns each subscriber's decoded
// blocks in arrival order and how many blocks the broker ingested — the
// fault plan decides that (a flipped frame is dropped whole, a reset cuts
// the stream), and only the wire encoding toward each subscriber is free to
// differ from what was published.
func runSwarmCell(t *testing.T, m codec.Method, pl selector.Placement,
	plan faultnet.Plan, blocks [][]byte) (streams [][][]byte, ingested int64) {
	t.Helper()
	const nSubs = 2

	met := metrics.NewRegistry()
	cfg := broker.Config{
		Channels:  []string{"md"},
		Heartbeat: -1,
		Placement: pl,
		Metrics:   met,
		Logf:      func(string, ...any) {},
	}
	cfg.Engine.Selector = selector.DefaultConfig()
	cfg.Engine.Selector.BlockSize = len(blocks[0])
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

	// Subscribers: each keeps its decoded blocks in arrival order. subWG
	// orders the appends before the reads below.
	streams = make([][][]byte, nSubs)
	var subWG sync.WaitGroup
	conns := make([]net.Conn, nSubs)
	for i := 0; i < nSubs; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = conn
		if err := broker.HandshakeSubscribe(conn, "md"); err != nil {
			t.Fatal(err)
		}
		subWG.Add(1)
		go func(i int) {
			defer subWG.Done()
			fr := codec.NewFrameReader(conns[i], cfg.Engine.Registry)
			for {
				data, _, err := fr.ReadBlock()
				if err != nil {
					return
				}
				if len(data) == 0 {
					continue
				}
				streams[i] = append(streams[i], data)
			}
		}(i)
	}

	// Publisher: frames go through the fault plan; publisher placement
	// ships them pre-encoded with the cell's method, the others ship raw.
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
	pub := faultnet.Wrap(pubConn, plan)
	for _, block := range blocks {
		frame, _, err := codec.AppendFrameOpts(nil, cfg.Engine.Registry, pubMethod, block, codec.FrameOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pub.Write(frame); err != nil {
			break // injected reset: the surviving prefix is deterministic
		}
	}
	pub.Close()

	// The publisher is done. Shutdown lets the broker read its stream to the
	// end, flushes the encode plane and drains both subscriber queues before
	// closing them, so the readers' EOF marks the complete delivered stream.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	subWG.Wait()
	for _, c := range conns {
		c.Close()
	}
	return streams, met.Counter("broker.events_in").Value()
}

// TestSwarmByteIdentity gates the fan-out path on output identity: for
// every §2 codec method crossed with every compression placement, under a
// rotating slice of the fault matrix, each subscriber's decoded stream is
// exactly the published blocks the broker ingested — byte-identical, in
// publish order, none twice, and as many as were ingested. Encoding, class
// migration and placement move work around; they must never change what
// arrives. Run under -race in CI's channel-churn job.
func TestSwarmByteIdentity(t *testing.T) {
	const (
		nBlocks   = 16
		blockSize = 8 << 10
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
	}{
		{name: "clean"},
		{name: "bitflip", plan: faultnet.Plan{FlipPer: 48 << 10, Seed: 7}},
		{name: "stall", plan: faultnet.Plan{StallAt: 64 << 10, Stall: 150 * time.Millisecond, Seed: 5}},
		{name: "reset", plan: faultnet.Plan{ResetAt: 40 << 10, Seed: 9}},
	}

	combo := 0
	for _, pl := range placements {
		for _, m := range methods {
			tc := plans[combo%len(plans)]
			combo++
			name := fmt.Sprintf("%s/%s/%s", pl, m, tc.name)
			t.Run(name, func(t *testing.T) {
				placementFilter(t, pl)
				streams, ingested := runSwarmCell(t, m, pl, tc.plan, blocks)
				if tc.plan == (faultnet.Plan{}) && ingested != nBlocks {
					t.Fatalf("clean cell ingested %d blocks, want all %d", ingested, nBlocks)
				}
				delivered := 0
				for i, got := range streams {
					if int64(len(got)) != ingested {
						t.Fatalf("subscriber %d got %d blocks, broker ingested %d", i, len(got), ingested)
					}
					// Every block carries its index, so each delivery names
					// the published block it must equal.
					last := -1
					for _, block := range got {
						idx := int(binary.BigEndian.Uint32(block[:4]))
						if idx <= last || idx >= nBlocks {
							t.Fatalf("subscriber %d: block %d after block %d — out of order, repeated or unknown", i, idx, last)
						}
						last = idx
						testx.ByteIdentity(t, fmt.Sprintf("subscriber %d block %d", i, idx), block, blocks[idx])
						delivered += len(block)
					}
				}
				if delivered == 0 && tc.name != "reset" {
					t.Fatal("cell delivered zero bytes — identity check is vacuous")
				}
			})
		}
	}
}
