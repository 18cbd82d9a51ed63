// Lossycoords: the paper's §5 future work, running — an application-
// specific lossy codec deployed into the middleware at runtime.
//
// Molecular coordinates barely compress losslessly (Figure 6); §5 concludes
// that such data needs user-integrated lossy methods. Here the application
// registers a float64 quantizer (tolerance it chooses: 0.1 mÅ) under a
// custom method identifier, derives a lossy channel from the raw coordinate
// stream, and the consumer decodes transparently through the same frame
// format — no middleware changes, no producer changes.
//
//	go run ./examples/lossycoords
package main

import (
	"bytes"
	"fmt"
	"log"

	"ccx/internal/codec"
	"ccx/internal/datagen"
	"ccx/internal/echo"
	"ccx/internal/pbio"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The application knows its precision needs: 1e-4 in coordinate units.
	const tolerance = 1e-4
	quantizer, err := NewFloat64Quantizer(codec.FirstCustom, tolerance)
	if err != nil {
		return err
	}
	registry := codec.NewRegistry()
	registry.Register(quantizer) // runtime deployment (§3.2 / §5)

	domain := echo.NewDomain()
	coords := domain.OpenChannel("md.coords")
	lossyCh, err := coords.Derive("md.coords.lossy", func(ev echo.Event) (echo.Event, bool) {
		var buf bytes.Buffer
		fw := codec.NewFrameWriter(&buf, registry)
		if _, err := fw.WriteBlock(quantizer.Method(), ev.Data); err != nil {
			return echo.Event{}, false
		}
		return echo.Event{Data: append([]byte(nil), buf.Bytes()...)}, true
	})
	if err != nil {
		return err
	}

	var totalIn, totalOut int
	lossyCh.Subscribe(func(ev echo.Event) {
		data, info, err := codec.NewFrameReader(bytes.NewReader(ev.Data), registry).ReadBlock()
		if err != nil {
			log.Printf("decode: %v", err)
			return
		}
		totalIn += info.OrigLen
		totalOut += info.CompLen
		_ = data // reconstructed coordinates, within ±tolerance/2
	})

	// Compare against the strongest lossless method on the same stream.
	var losslessOut int
	for frameNo := 0; frameNo < 20; frameNo++ {
		atoms := datagen.Molecular(3000, int64(frameNo))
		batch, err := datagen.MolecularBatch(atoms)
		if err != nil {
			return err
		}
		f := datagen.MolecularFormat()
		col, err := pbio.ExtractColumn(batch, f, f.FieldIndex("coordinates"))
		if err != nil {
			return err
		}
		bwtOut, err := codec.Compress(codec.BurrowsWheeler, col)
		if err != nil {
			return err
		}
		losslessOut += len(bwtOut)
		if err := coords.Submit(echo.Event{Data: col}); err != nil {
			return err
		}
	}

	fmt.Printf("20 coordinate frames, %d bytes total\n", totalIn)
	fmt.Printf("  best lossless (burrows-wheeler): %7d bytes (%.1f%%)\n",
		losslessOut, 100*float64(losslessOut)/float64(totalIn))
	fmt.Printf("  lossy quantizer (±%.0e):         %7d bytes (%.1f%%)\n",
		tolerance/2, totalOut, 100*float64(totalOut)/float64(totalIn))
	fmt.Println("the application-specific codec reaches where lossless methods cannot (paper §5)")
	return nil
}
