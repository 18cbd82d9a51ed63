package broker

import (
	"bytes"
	"context"
	"io"
	"net"
	"testing"
	"time"

	"ccx/internal/codec"
	"ccx/internal/core"
	"ccx/internal/datagen"
	"ccx/internal/metrics"
	"ccx/internal/selector"
	"ccx/internal/testx"
)

// TestSubscriberPipeline runs a subscriber behind a 4-worker encode
// pipeline and checks the invariants the parallel path must preserve:
// every published payload arrives intact, in publication order, with
// strictly increasing sequence numbers, and the broker still shuts down
// without leaking the pipeline's goroutines.
func TestSubscriberPipeline(t *testing.T) {
	const (
		eventSize = 8 << 10
		numEvents = 64
	)
	noLeaks := testx.GoroutineGuard(t, 0)

	met := metrics.NewRegistry()
	cfg := Config{
		QueueLen:  256,
		Policy:    Evict,
		Heartbeat: -1,
		Metrics:   met,
	}
	cfg.Engine.Selector = selector.DefaultConfig()
	cfg.Engine.Selector.BlockSize = eventSize
	cfg.Engine.Workers = 4
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	subClient, subServer := net.Pipe()
	defer subClient.Close()
	b.HandleConn(subServer)
	if err := HandshakeSubscribe(subClient, "md"); err != nil {
		t.Fatal(err)
	}
	type delivery struct {
		data []byte
		seqs []uint64
	}
	got := make(chan delivery, 1)
	go func() {
		raw, _ := io.ReadAll(subClient)
		fr := codec.NewFrameReader(bytes.NewReader(raw), nil)
		var d delivery
		var buf bytes.Buffer
		for {
			data, info, err := fr.ReadBlock()
			if err != nil {
				break
			}
			if len(data) == 0 {
				continue // heartbeat
			}
			buf.Write(data)
			d.seqs = append(d.seqs, info.Seq)
		}
		d.data = buf.Bytes()
		got <- d
	}()

	stream := datagen.OISTransactions(numEvents*eventSize, 0.9, 42)
	pubClient, pubServer := net.Pipe()
	b.HandleConn(pubServer)
	if err := HandshakePublish(pubClient, "md"); err != nil {
		t.Fatal(err)
	}
	pubCfg := selector.DefaultConfig()
	pubCfg.BlockSize = eventSize
	pubEngine, err := core.NewEngine(core.Config{Selector: pubCfg})
	if err != nil {
		t.Fatal(err)
	}
	w := core.NewWriter(pubClient, pubEngine, nil)
	if _, err := w.Write(stream); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	pubClient.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	d := <-got
	if !bytes.Equal(d.data, stream) {
		t.Fatalf("delivered payload differs from published stream: %d vs %d bytes",
			len(d.data), len(stream))
	}
	if len(d.seqs) != numEvents {
		t.Fatalf("delivered %d blocks, want %d", len(d.seqs), numEvents)
	}
	for i, s := range d.seqs {
		if s != uint64(i+1) {
			t.Fatalf("block %d carries seq %d, want %d: parallel encode reordered the wire", i, s, i+1)
		}
	}

	// The pipeline's workers and sequencer must be gone after Shutdown.
	noLeaks()
}
