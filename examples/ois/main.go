// OIS: the paper's commercial scenario as real middleware — producer and
// consumer in different address spaces connected by the transport
// encapsulation layer, with a consumer-initiated derived compression
// channel and quality attributes flowing upstream (§3.2).
//
// The producer publishes operational-information-system transactions.
// The consumer, noticing how slowly it accepts events (its simulated WAN
// is congested), derives a compressed channel at runtime and subscribes to
// it instead — no producer change, no recompilation, exactly the ECho
// evolution story. Goodput reports flow back as attributes and drive the
// producer-side selector.
//
//	go run ./examples/ois
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"ccx/internal/codec"
	"ccx/internal/core"
	"ccx/internal/datagen"
	"ccx/internal/echo"
	"ccx/internal/netsim"
	"ccx/internal/selector"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Two address spaces joined by one multiplexed connection.
	producerSide, consumerSide := net.Pipe()
	prodDomain := echo.NewDomain()
	consDomain := echo.NewDomain()
	prodBridge := echo.NewBridge(prodDomain, producerSide)
	consBridge := echo.NewBridge(consDomain, consumerSide)
	defer func() {
		prodBridge.Close()
		consBridge.Close()
		<-prodBridge.Done()
		<-consBridge.Done()
	}()

	// Producer side: a raw transaction channel plus an engine that will
	// serve any derived compression channel.
	cfg := selector.DefaultConfig()
	cfg.BlockSize = 16 << 10
	engine, err := core.NewEngine(core.Config{Selector: cfg})
	if err != nil {
		return err
	}
	raw := prodDomain.OpenChannel("ois.txns")
	if _, err := echo.DeriveCompressed(raw, "ois.txns.z", engine); err != nil {
		return err
	}

	// Consumer side: import the compressed channel through the bridge. In a
	// deployed system the consumer would first watch "ois.txns", measure its
	// acceptance rate, and only then derive; here it goes straight to the
	// derived channel for brevity.
	imported, err := consBridge.ImportChannel("ois.txns.z")
	if err != nil {
		return err
	}

	// The consumer's outbound WAN is a congested 1 MBit/s simulated line;
	// its acceptance rate is what the producer must adapt to.
	clock := netsim.NewVirtual()
	wan := netsim.NewLink(netsim.Slow1M, clock, 9)

	type rx struct {
		info codec.BlockInfo
	}
	got := make(chan rx, 256)
	echo.SubscribeDecompressed(imported, nil, 0, func(data []byte, info codec.BlockInfo) {
		// Simulate pushing the payload onward across the WAN and report the
		// achieved rate upstream via the quality attribute.
		d := wan.Send(info.CompLen)
		imported.SetAttr(echo.AttrGoodput, fmt.Sprintf("%f", float64(info.CompLen)/d.Seconds()))
		got <- rx{info}
	})

	// Wait until the subscription has propagated to the producer.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ch, ok := prodDomain.Channel("ois.txns.z"); ok && ch.Subscribers() > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	fmt.Println("event  method           original  wire")
	var orig, wire int
	for i := 0; i < 24; i++ {
		payload := datagen.OISTransactions(16<<10, 0.9, int64(i))
		if err := raw.Submit(echo.Event{Data: payload}); err != nil {
			return err
		}
		select {
		case r := <-got:
			orig += r.info.OrigLen
			wire += r.info.CompLen
			fmt.Printf("%-6d %-16s %-9d %d\n", i, r.info.Method, r.info.OrigLen, r.info.CompLen)
		case <-time.After(5 * time.Second):
			return fmt.Errorf("event %d never arrived", i)
		}
	}
	fmt.Printf("\ntotal: %d bytes -> %d across the bridge (%.1f%%)\n",
		orig, wire, float64(wire)/float64(orig)*100)
	fmt.Println("the first events travel raw; once goodput reports arrive, the selector switches on compression")
	return nil
}
