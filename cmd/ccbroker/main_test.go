package main

import (
	"bytes"
	"net"
	"net/http"
	"testing"
	"time"

	"ccx/internal/broker"
	"ccx/internal/codec"
	"ccx/internal/core"
	"ccx/internal/datagen"
	"ccx/internal/selector"
	"ccx/internal/testx"
	"ccx/internal/tracing"
)

func TestBadFlags(t *testing.T) {
	cases := [][]string{
		{"-channels", ""},
		{"-policy", "wedge"},
		{"-queue", "-3"},
		{"-nope"},
	}
	for _, args := range cases {
		if err := run(args, make(chan struct{})); err == nil {
			t.Errorf("run(%v) = nil, want error", args)
		}
	}
}

// freeAddr reserves an ephemeral port and releases it for run to claim.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// dialBroker retries until the daemon under test is accepting.
func dialBroker(t *testing.T, addr string) net.Conn {
	t.Helper()
	var conn net.Conn
	testx.WaitUntil(t, "the daemon to accept on "+addr, func() (ok bool) {
		c, err := net.Dial("tcp", addr)
		conn = c
		return err == nil
	})
	return conn
}

// The daemon runs with -debug and no -trace-* flag: that alone must build the
// span ring, so a path's first decision — recorded at any sampling rate — is
// there to read at /debug/spans.
func TestPublishFanOutSession(t *testing.T) {
	addr, dbgAddr := freeAddr(t), freeAddr(t)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", addr,
			"-debug", dbgAddr,
			"-channels", "md, audit",
			"-policy", "evict",
			"-hb", "-1s",
		}, stop)
	}()

	// Two subscribers on the same channel.
	type sub struct {
		conn net.Conn
		got  chan []byte
	}
	var subs []sub
	for i := 0; i < 2; i++ {
		conn := dialBroker(t, addr)
		defer conn.Close()
		if err := broker.HandshakeSubscribe(conn, "md"); err != nil {
			t.Fatalf("subscribe %d: %v", i, err)
		}
		got := make(chan []byte, 1)
		go func(c net.Conn) {
			fr := codec.NewFrameReader(c, nil)
			var buf bytes.Buffer
			for {
				data, _, err := fr.ReadBlock()
				if err != nil {
					break
				}
				buf.Write(data)
			}
			got <- buf.Bytes()
		}(conn)
		subs = append(subs, sub{conn, got})
	}

	// A channel outside -channels is refused.
	bad := dialBroker(t, addr)
	defer bad.Close()
	if err := broker.HandshakeSubscribe(bad, "secrets"); err == nil {
		t.Error("subscribe to unserved channel succeeded, want refusal")
	}

	// Publish a stream through an adaptive writer.
	stream := datagen.OISTransactions(64<<10, 0.9, 7)
	pub := dialBroker(t, addr)
	defer pub.Close()
	if err := broker.HandshakePublish(pub, "md"); err != nil {
		t.Fatalf("publish handshake: %v", err)
	}
	selCfg := selector.DefaultConfig()
	selCfg.BlockSize = 8 << 10
	engine, err := core.NewEngine(core.Config{Selector: selCfg})
	if err != nil {
		t.Fatal(err)
	}
	w := core.NewWriter(pub, engine, nil)
	if _, err := w.Write(stream); err != nil {
		t.Fatalf("publish: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	pub.Close()

	// Sampling is off, so what the ring holds is the always-on spans: each
	// subscriber path's first decision, worded.
	firstDecisions := func() map[string]string {
		out := make(map[string]string)
		resp, err := http.Get("http://" + dbgAddr + "/debug/spans")
		if err != nil {
			return out
		}
		defer resp.Body.Close()
		spans, _ := tracing.ReadJSONL(resp.Body)
		for _, s := range spans {
			if s.Stage == tracing.StageDecide && s.Anomaly && s.Trace == 0 && s.Decision != nil {
				out[s.Stream] = s.Decision.Reason
			}
		}
		return out
	}
	testx.WaitUntil(t, "both paths' first decide span at /debug/spans", func() bool {
		got := firstDecisions()
		return got["sub.1"] != "" && got["sub.2"] != ""
	})

	// Graceful stop drains both subscriber queues before closing.
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	for i, s := range subs {
		select {
		case data := <-s.got:
			if !bytes.Equal(data, stream) {
				t.Errorf("subscriber %d: got %d bytes, want %d identical", i, len(data), len(stream))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("subscriber %d never saw EOF", i)
		}
	}
}
