// Command ccecho runs a standalone event-middleware node: it serves a
// domain of event channels over TCP (any number of peers multiplex any
// number of channels over one connection each), optionally publishing a
// file or generated stream on a channel with configurable compression.
//
// A minimal two-node session:
//
//	ccecho -listen :9980 -publish ois.txns -kind ois -size 4194304   # node A
//	ccecho -connect hostA:9980 -subscribe ois.txns.z                 # node B
//
// Node A publishes transactions on "ois.txns" and serves the derived
// compressed channel "ois.txns.z"; node B imports the compressed channel
// and prints per-event method/size lines as they arrive.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ccx/internal/codec"
	"ccx/internal/core"
	"ccx/internal/datagen"
	"ccx/internal/echo"
	"ccx/internal/selector"
)

func main() {
	if err := run(os.Args[1:], make(chan struct{})); err != nil {
		fmt.Fprintln(os.Stderr, "ccecho:", err)
		os.Exit(1)
	}
}

// run starts the node and blocks until stop closes or SIGINT/SIGTERM.
func run(args []string, stop chan struct{}) error {
	fs := flag.NewFlagSet("ccecho", flag.ContinueOnError)
	var (
		listen    = fs.String("listen", "", "serve the domain on this TCP address")
		connect   = fs.String("connect", "", "join a remote node at this TCP address")
		publish   = fs.String("publish", "", "publish a generated stream on this channel (a .z derived channel is added)")
		subscribe = fs.String("subscribe", "", "import and print this channel")
		kind      = fs.String("kind", "ois", "publish payload kind: ois | xml | molecular")
		size      = fs.Int("size", 1<<20, "bytes per published event batch")
		events    = fs.Int("events", 16, "number of events to publish (0 = forever)")
		interval  = fs.Duration("interval", 100*time.Millisecond, "publish interval")
		blockSize = fs.Int("block", 64<<10, "compression block size")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listen == "" && *connect == "" {
		return fmt.Errorf("need -listen and/or -connect")
	}
	if *size > echo.MaxEventData {
		return fmt.Errorf("event size %d exceeds what a bridge carries, %d", *size, echo.MaxEventData)
	}

	domain := echo.NewDomain()
	var bridgeMu sync.Mutex
	var bridges []*echo.Bridge
	addBridge := func(b *echo.Bridge) {
		bridgeMu.Lock()
		bridges = append(bridges, b)
		bridgeMu.Unlock()
	}
	defer func() {
		bridgeMu.Lock()
		all := append([]*echo.Bridge(nil), bridges...)
		bridgeMu.Unlock()
		for _, b := range all {
			b.Close()
		}
	}()

	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "serving domain on %s\n", ln.Addr())
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				addBridge(echo.NewBridge(domain, conn))
			}
		}()
	}
	var remote *echo.Bridge
	if *connect != "" {
		conn, err := net.Dial("tcp", *connect)
		if err != nil {
			return err
		}
		remote = echo.NewBridge(domain, conn)
		addBridge(remote)
		fmt.Fprintf(os.Stderr, "joined %s\n", *connect)
	}

	if *subscribe != "" {
		var ch *echo.EventChannel
		var err error
		if remote != nil {
			ch, err = remote.ImportChannel(*subscribe)
			if err != nil {
				return err
			}
		} else {
			ch = domain.OpenChannel(*subscribe)
		}
		var n atomic.Int64
		echo.SubscribeDecompressed(ch, nil, 4, func(data []byte, info codec.BlockInfo) {
			fmt.Printf("event %d: %-15s %7d -> %7d bytes\n", n.Add(1), info.Method, info.CompLen, info.OrigLen)
		})
	}

	publishDone := make(chan struct{})
	if *publish != "" {
		cfg := selector.DefaultConfig()
		cfg.BlockSize = *blockSize
		engine, err := core.NewEngine(core.Config{Selector: cfg})
		if err != nil {
			return err
		}
		raw := domain.OpenChannel(*publish)
		if _, err := echo.DeriveCompressed(raw, *publish+".z", engine); err != nil {
			return err
		}
		go func() {
			defer close(publishDone)
			ticker := time.NewTicker(*interval)
			defer ticker.Stop()
			for i := 0; *events == 0 || i < *events; i++ {
				select {
				case <-stop:
					return
				case <-ticker.C:
				}
				var payload []byte
				switch *kind {
				case "xml":
					payload = datagen.XMLDocuments(*size, int64(i))
				case "molecular":
					rec := datagen.MolecularFormat().RecordSize()
					payload, _ = datagen.MolecularBatch(datagen.Molecular(*size/rec, int64(i)))
				default:
					payload = datagen.OISTransactions(*size, 0.9, int64(i))
				}
				if err := raw.Submit(echo.Event{Data: payload}); err != nil {
					return
				}
			}
		}()
	} else {
		close(publishDone)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case <-stop:
	case <-sig:
	case <-publishDone:
		if *publish != "" && *events > 0 {
			// Give the last events time to drain across bridges.
			time.Sleep(200 * time.Millisecond)
		}
	}
	return nil
}
