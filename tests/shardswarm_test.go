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

// runShardCell runs one (method, placement, fault-plan) cell against a
// broker with the given shard count and returns each subscriber's decoded
// payload stream concatenated in arrival order. The publisher path is
// byte-deterministic (pinned method, fixed blocks, seeded fault plan keyed
// to stream offsets), so two runs of the same cell ingest — and therefore
// must deliver — the same block set regardless of shard count; only the
// wire encoding toward each subscriber is free to differ.
func runShardCell(t *testing.T, shards int, m codec.Method, pl selector.Placement,
	plan faultnet.Plan, blocks [][]byte) [][]byte {
	t.Helper()
	const nSubs = 2

	met := metrics.NewRegistry()
	cfg := broker.Config{
		Channels:  []string{"md"},
		Heartbeat: -1,
		Shards:    shards,
		Placement: pl,
		Metrics:   met,
		Logf:      func(string, ...any) {},
	}
	cfg.Engine.Selector = selector.DefaultConfig()
	cfg.Engine.Selector.BlockSize = len(blocks[0])
	cfg.Engine.Policy = pinPolicy{m}
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

	// Subscribers: each concatenates its decoded blocks in arrival order.
	streams := make([][]byte, nSubs)
	counts := make([]int, nSubs)
	var mu sync.Mutex
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
			fr := codec.NewFrameReader(conns[i], nil)
			for {
				data, _, err := fr.ReadBlock()
				if err != nil {
					return
				}
				if len(data) == 0 {
					continue
				}
				mu.Lock()
				streams[i] = append(streams[i], data...)
				counts[i]++
				mu.Unlock()
			}
		}(i)
	}
	received := func(i int) int64 {
		mu.Lock()
		defer mu.Unlock()
		return int64(counts[i])
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
		frame, _, err := codec.AppendFrameOpts(nil, nil, pubMethod, block, codec.FrameOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pub.Write(frame); err != nil {
			break // injected reset: the surviving prefix is deterministic
		}
	}
	pub.Close()

	// The publisher is done; wait for intake to go quiet and every
	// subscriber to catch up with everything ingested.
	eventsIn := met.Counter("broker.events_in")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("delivery never settled: %d ingested, %d/%d received",
				eventsIn.Value(), received(0), received(1))
		}
		before := eventsIn.Value()
		time.Sleep(75 * time.Millisecond)
		if eventsIn.Value() == before && received(0) == before && received(1) == before {
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
	subWG.Wait()
	for _, c := range conns {
		c.Close()
	}
	return streams
}

// TestSwarmByteIdentity gates the sharded core on output equivalence: for
// every §2 codec method crossed with every compression placement, a
// multi-shard broker must hand each subscriber a byte-identical decoded
// stream to the single-loop (Shards=1) reference broker, under a rotating
// slice of the fault matrix. Sharding moves fan-out work between event
// loops; it must never change what arrives. Run under -race in CI's
// shard-churn job.
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
				single := runShardCell(t, 1, m, pl, tc.plan, blocks)
				sharded := runShardCell(t, 4, m, pl, tc.plan, blocks)
				delivered := 0
				for i := range single {
					testx.ByteIdentity(t, fmt.Sprintf("subscriber %d stream", i),
						sharded[i], single[i])
					delivered += len(single[i])
				}
				if delivered == 0 && tc.name != "reset" {
					t.Fatal("cell delivered zero bytes — identity check is vacuous")
				}
			})
		}
	}
}
