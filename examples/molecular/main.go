// Molecular: scientific-data streaming through ECho-style middleware with
// configurable compression, under MBone-driven network load — the paper's
// §4.2 molecular scenario end to end.
//
// A producer publishes one PBIO-serialized molecular-dynamics frame per
// virtual second for 160 seconds, matching the paper's Figure 11 timeline.
// A derived channel compresses each event with whatever method the engine
// picks at that moment; the consumer decodes transparently and reports its
// acceptance rate upstream through a quality attribute. The method track
// mirrors Figure 11: raw while the MBone audience is small, mostly Huffman
// at peak load, with dictionary methods on the repetitive topology frames.
//
//	go run ./examples/molecular
package main

import (
	"fmt"
	"log"
	"time"

	"ccx/internal/codec"
	"ccx/internal/core"
	"ccx/internal/datagen"
	"ccx/internal/echo"
	"ccx/internal/netsim"
	"ccx/internal/selector"
	"ccx/internal/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A 100 MBit/s link whose background load follows the MBone trace,
	// scaled down 16x so the CPU-vs-network balance matches the paper's
	// testbed (see DESIGN.md).
	const k = 16
	clock := netsim.NewVirtual()
	start := clock.Now()
	prof := netsim.Fast100
	prof.RateBps /= k
	link := netsim.NewLink(prof, clock, 3)
	tr := trace.MBoneSynthetic(3)
	link.SetLoad(tr.LoadFunc(trace.DefaultLoadConfig(prof, start), prof))

	// Engine with a virtual CPU scaled into the paper's Figure 4 regime.
	cfg := selector.DefaultConfig()
	cfg.BlockSize = 8 << 10 // frames are the block unit here
	tick := time.Unix(0, 0)
	engine, err := core.NewEngine(core.Config{
		Selector:   cfg,
		Now:        func() time.Time { tick = tick.Add(time.Millisecond); return tick },
		SpeedScale: (0.7 * 4096 / 0.001) / (2.2e6 / k),
	})
	if err != nil {
		return err
	}

	// Middleware wiring: raw frames in, compressed frames out of a derived
	// channel (§3.2's dynamic handler instantiation).
	domain := echo.NewDomain()
	frames := domain.OpenChannel("md.frames")
	compressed, err := echo.DeriveCompressed(frames, "md.frames.z", engine)
	if err != nil {
		return err
	}

	methodCounts := map[codec.Method]int{}
	var wire, orig int
	var lastMethod codec.Method
	compressed.Subscribe(func(ev echo.Event) {
		data, info, err := echo.DecodeEvent(ev, nil)
		if err != nil {
			log.Printf("decode: %v", err)
			return
		}
		lastMethod = info.Method
		methodCounts[info.Method]++
		wire += info.CompLen
		orig += len(data)
		// Consumer side: the simulated send's timing is reported upstream —
		// the quality-attribute feedback loop of §3.2.
		d := link.Send(info.CompLen)
		compressed.SetAttr(echo.AttrGoodput, fmt.Sprintf("%f", float64(info.CompLen)/d.Seconds()))
	})

	// Producer: one frame per virtual second; every 10th frame is
	// repetitive topology/metadata rather than particle records.
	recSize := datagen.MolecularFormat().RecordSize()
	atomsPerFrame := (8 << 10) / recSize
	topo := datagen.OISTransactions(8<<10, 0.95, 11)

	fmt.Println("t(s)   load  frame kind  method")
	frameGap := time.Second
	for i := 0; i < 160; i++ {
		var payload []byte
		kind := "records"
		if i%10 == 9 {
			payload = topo
			kind = "topology"
		} else {
			atoms := datagen.Molecular(atomsPerFrame, int64(i))
			var err error
			payload, err = datagen.MolecularBatch(atoms)
			if err != nil {
				return err
			}
		}
		if err := frames.Submit(echo.Event{Data: payload}); err != nil {
			return err
		}
		if i%10 == 0 || kind == "topology" {
			fmt.Printf("%-6.0f %-5d %-11s %s\n",
				clock.Now().Sub(start).Seconds(), tr.At(clock.Now().Sub(start)), kind, lastMethod)
		}
		// Next frame arrives after the production interval.
		clock.Advance(frameGap)
	}

	fmt.Printf("\n160 frames: %d bytes -> %d on the wire (%.1f%%)\n",
		orig, wire, float64(wire)/float64(orig)*100)
	fmt.Printf("method mix: none=%d huffman=%d lz=%d bwt=%d (paper Figure 11: mostly Huffman, dictionary islands)\n",
		methodCounts[codec.None], methodCounts[codec.Huffman],
		methodCounts[codec.LempelZiv], methodCounts[codec.BurrowsWheeler])
	return nil
}
