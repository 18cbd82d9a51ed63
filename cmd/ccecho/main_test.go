package main

import (
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"ccx/internal/codec"
	"ccx/internal/echo"
	"ccx/internal/testx"
)

func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestNeedsEndpoint(t *testing.T) {
	if err := run(nil, make(chan struct{})); err == nil {
		t.Fatal("no endpoints accepted")
	}
}

func TestBadFlags(t *testing.T) {
	if err := run([]string{"-nope"}, make(chan struct{})); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-connect", "127.0.0.1:1"}, make(chan struct{})); err == nil {
		t.Fatal("dead address accepted")
	}
}

// An event travels the bridge as one frame, together with its attributes
// and, on the derived channel, its own frame header, so -size is held to
// echo.MaxEventData before the node starts.
func TestRefusesOversizeEvents(t *testing.T) {
	for _, size := range []int{echo.MaxEventData + 1, codec.MaxFrameLen + 1} {
		args := []string{"-listen", "127.0.0.1:0", "-publish", "txns", "-size", strconv.Itoa(size)}
		if err := run(args, make(chan struct{})); err == nil {
			t.Fatalf("-size %d above echo.MaxEventData accepted", size)
		}
	}
	stop := make(chan struct{})
	close(stop)
	args := []string{"-listen", "127.0.0.1:0", "-publish", "txns", "-size", strconv.Itoa(echo.MaxEventData)}
	if err := run(args, stop); err != nil {
		t.Fatalf("-size echo.MaxEventData refused: %v", err)
	}
}

// TestPublishSubscribeSession runs a publisher node via run() and consumes
// its compressed channel from an in-process bridge.
func TestPublishSubscribeSession(t *testing.T) {
	addr := freePort(t)
	stop := make(chan struct{})
	serverDone := make(chan error, 1)
	go func() {
		serverDone <- run([]string{
			"-listen", addr,
			"-publish", "txns",
			"-kind", "ois",
			"-size", "65536",
			"-events", "6",
			"-interval", "20ms",
			"-block", "16384",
		}, stop)
	}()

	// Client side: plain library bridge.
	var conn net.Conn
	testx.WaitUntil(t, "the node to listen", func() bool {
		var err error
		conn, err = net.Dial("tcp", addr)
		return err == nil
	})
	domain := echo.NewDomain()
	bridge := echo.NewBridge(domain, conn)
	defer bridge.Close()
	ch, err := bridge.ImportChannel("txns.z")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	events, bytesIn := 0, 0
	echo.SubscribeDecompressed(ch, nil, 0, func(data []byte, info codec.BlockInfo) {
		mu.Lock()
		events++
		bytesIn += len(data)
		mu.Unlock()
	})
	testx.WaitUntil(t, "three events", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return events >= 3
	})
	mu.Lock()
	gotBytes := bytesIn
	mu.Unlock()
	if gotBytes%65536 != 0 {
		t.Fatalf("payload bytes = %d", gotBytes)
	}
	close(stop)
	select {
	case err := <-serverDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not stop")
	}
}
