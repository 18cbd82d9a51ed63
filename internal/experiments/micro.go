package experiments

import (
	"fmt"
	"sort"

	"ccx/internal/codec"
	"ccx/internal/datagen"
	"ccx/internal/netsim"
	"ccx/internal/stats"
)

// Figure1 re-derives the paper's qualitative method-characteristics table
// from microbenchmarks of our implementations and sets it beside the
// published table. Ratings are assigned by rank within each dimension
// (best = Excellent, then Good, Satisfactory, Poor), which reproduces the
// paper's scale without its tie-breaking judgement calls.
func Figure1(o Options) (*Report, error) {
	o = o.withDefaults()
	repetitive := commercialData(o)
	lowEntropy := datagen.LowEntropy(o.DataBytes, 4, o.Seed)

	var cal Calibrator
	type scores struct {
		repRatio, lowRatio       float64
		compressSec, decompSec   float64
		globalSec, meanRatioBoth float64
	}
	measured := make(map[codec.Method]scores, 4)
	for _, m := range paperMethods() {
		rep, err := cal.Measure(m, repetitive)
		if err != nil {
			return nil, err
		}
		low, err := cal.Measure(m, lowEntropy)
		if err != nil {
			return nil, err
		}
		measured[m] = scores{
			repRatio:      rep.Ratio,
			lowRatio:      low.Ratio,
			compressSec:   rep.CompressTime.Seconds(),
			decompSec:     rep.DecompressTime.Seconds(),
			globalSec:     (rep.CompressTime + rep.DecompressTime).Seconds(),
			meanRatioBoth: (rep.Ratio + low.Ratio) / 2,
		}
	}

	// rank maps methods to ratings for one dimension; lower metric = better.
	rank := func(metric func(scores) float64) map[codec.Method]rating {
		ms := paperMethods()
		sort.Slice(ms, func(i, j int) bool {
			return metric(measured[ms[i]]) < metric(measured[ms[j]])
		})
		ratings := []rating{excellent, good, satisfactory, poor}
		out := make(map[codec.Method]rating, len(ms))
		for i, m := range ms {
			out[m] = ratings[i]
		}
		return out
	}

	// Figure 1's rows, in the paper's order (the order of paperFig1).
	dims := []struct {
		name   string
		metric func(scores) float64
	}{
		{"Compress files with string repetitions", func(s scores) float64 { return s.repRatio }},
		{"Compress files with low entropy", func(s scores) float64 { return s.lowRatio }},
		{"Compression Efficiency", func(s scores) float64 { return s.meanRatioBoth }},
		{"Time of Compression", func(s scores) float64 { return s.compressSec }},
		{"Time of Decompression", func(s scores) float64 { return s.decompSec }},
		{"Global Time", func(s scores) float64 { return s.globalSec }},
	}

	tbl := stats.Table{
		Title:   "Figure 1: derived vs published qualitative ratings",
		Columns: []string{"dimension", "method", "measured", "derived", "paper"},
	}
	agreements, total := 0, 0
	for d, dim := range dims {
		derived := rank(dim.metric)
		for _, m := range paperMethods() {
			val := dim.metric(measured[m])
			unit := ""
			if dim.name == "Time of Compression" || dim.name == "Time of Decompression" || dim.name == "Global Time" {
				unit = "s"
			}
			paperRating := paperFig1[m][d]
			tbl.AddRow(dim.name, m.String(),
				fmt.Sprintf("%.3f%s", val, unit),
				derived[m].String(), paperRating.String())
			total++
			// Count agreement loosely: within one rating step.
			diff := int(derived[m]) - int(paperRating)
			if diff < 0 {
				diff = -diff
			}
			if diff <= 1 {
				agreements++
			}
		}
	}
	return &Report{
		ID:     "fig1",
		Title:  "Qualitative method characteristics",
		Tables: []stats.Table{tbl},
		Notes: []string{
			fmt.Sprintf("derived ratings within one step of the paper's for %d/%d cells", agreements, total),
			"measured columns are this machine's native times/ratios on synthetic workloads",
		},
	}, nil
}

// ratioTable measures compressed-percent for every method over data and
// sets it beside paper reference percentages.
func ratioTable(title string, data []byte, ref map[codec.Method]float64) (stats.Table, map[codec.Method]float64, error) {
	tbl := stats.Table{
		Title:   title,
		Columns: []string{"method", "measured %", "paper % (est)"},
	}
	out := make(map[codec.Method]float64, 4)
	for _, m := range paperMethods() {
		comp, err := compress(m, data)
		if err != nil {
			return tbl, nil, err
		}
		pct := float64(len(comp)) / float64(len(data)) * 100
		out[m] = pct
		tbl.AddRow(m.String(), fmt.Sprintf("%.2f", pct), fmt.Sprintf("%.0f", ref[m]))
	}
	return tbl, out, nil
}

// Figure2 reproduces the commercial-data compression ratios.
func Figure2(o Options) (*Report, error) {
	o = o.withDefaults()
	data := commercialData(o)
	tbl, measured, err := ratioTable("Figure 2: compressed size, commercial data (percent of original)", data, paperFig2Percent)
	if err != nil {
		return nil, err
	}
	notes := []string{
		fmt.Sprintf("dataset: %d bytes of OIS transactions (repetition 0.9, seed %d)", len(data), o.Seed),
	}
	if measured[codec.BurrowsWheeler] < measured[codec.LempelZiv] &&
		measured[codec.LempelZiv] < measured[codec.Huffman] {
		notes = append(notes, "shape holds: BWT < LZ < Huffman, as in the paper")
	} else {
		notes = append(notes, "SHAPE MISMATCH: expected BWT < LZ < Huffman")
	}
	return &Report{ID: "fig2", Title: "Compression ratios, commercial data", Tables: []stats.Table{tbl}, Notes: notes}, nil
}

// Figure3 reproduces the compression/decompression time comparison.
func Figure3(o Options) (*Report, error) {
	o = o.withDefaults()
	data := commercialData(o)
	var cal Calibrator
	tbl := stats.Table{
		Title:   "Figure 3: compression and decompression times, commercial data",
		Columns: []string{"method", "compress (s)", "decompress (s)", "paper compress (s est)", "paper decompress (s est)"},
	}
	type pair struct{ c, d float64 }
	meas := make(map[codec.Method]pair, 4)
	for _, m := range paperMethods() {
		res, err := cal.Measure(m, data)
		if err != nil {
			return nil, err
		}
		meas[m] = pair{res.CompressTime.Seconds(), res.DecompressTime.Seconds()}
		ref := paperFig3Seconds[m]
		tbl.AddRow(m.String(),
			fmt.Sprintf("%.4f", res.CompressTime.Seconds()),
			fmt.Sprintf("%.4f", res.DecompressTime.Seconds()),
			fmt.Sprintf("%.1f", ref[0]),
			fmt.Sprintf("%.1f", ref[1]))
	}
	bwt, lz, huff, arith := meas[codec.BurrowsWheeler], meas[codec.LempelZiv], meas[codec.Huffman], meas[codec.Arithmetic]
	notes := []string{
		"measured columns are native wall times on this machine; the paper's Sun-Fire is ~1-2 orders slower",
		bwtOverLZNote(bwt.c, lz.c),
	}
	if huff.c < lz.c && huff.c < bwt.c && bwt.d > lz.d &&
		arith.d > bwt.d && arith.d > lz.d && arith.d > huff.d {
		notes = append(notes, "shape holds: Huffman fastest to compress, both dictionary methods slower, BWT slower than LZ to decompress, arithmetic slowest to decompress")
	} else {
		notes = append(notes, "SHAPE MISMATCH vs paper ordering")
	}
	return &Report{ID: "fig3", Title: "Compression/decompression times", Tables: []stats.Table{tbl}, Notes: notes}, nil
}

// bwtOverLZNote sets the measured Burrows-Wheeler ÷ Lempel-Ziv compress-time
// ratio beside the paper's 3.1. Ours sorts rotations in linear time and is
// level with LZ or ahead of it, so no shape rests on that order; nothing
// consumes it (RatioPolicy reads LZ's measured reduce time and the paper's
// constants).
func bwtOverLZNote(bwtSec, lzSec float64) string {
	ref := paperFig3Seconds[codec.BurrowsWheeler][0] / paperFig3Seconds[codec.LempelZiv][0]
	return fmt.Sprintf("BWT/LZ compress-time ratio: %.2f measured, %.1f in the paper (est); a linear-time rotation sort removes the paper's gap and no shape below depends on it", bwtSec/lzSec, ref)
}

// Figure4 reproduces the reducing-speed comparison across two machine
// classes. The Ultra-Sparc analog is emulated as a 2× slower CPU, matching
// the paper's roughly constant inter-machine ratio across methods.
func Figure4(o Options) (*Report, error) {
	o = o.withDefaults()
	data := commercialData(o)
	fast := Calibrator{}
	slow := Calibrator{SpeedScale: 2}
	tbl := stats.Table{
		Title:   "Figure 4: reducing speed (MB/s)",
		Columns: []string{"method", "sun-fire analog", "ultra-sparc analog", "paper sun-fire (est)", "paper ultra-sparc (est)"},
	}
	speeds := make(map[codec.Method]float64, 4)
	compress := make(map[codec.Method]float64, 4)
	for _, m := range paperMethods() {
		rf, err := fast.Measure(m, data)
		if err != nil {
			return nil, err
		}
		rs, err := slow.Measure(m, data)
		if err != nil {
			return nil, err
		}
		speeds[m] = rf.ReducingSpeed
		compress[m] = rf.CompressTime.Seconds()
		ref := paperFig4ReducingMBs[m]
		tbl.AddRow(m.String(),
			fmt.Sprintf("%.2f", rf.ReducingSpeed/1e6),
			fmt.Sprintf("%.2f", rs.ReducingSpeed/1e6),
			fmt.Sprintf("%.2f", ref[0]),
			fmt.Sprintf("%.2f", ref[1]))
	}
	notes := []string{
		"absolute speeds reflect this machine; the selector consumes only ratios",
		bwtOverLZNote(compress[codec.BurrowsWheeler], compress[codec.LempelZiv]),
	}
	if speeds[codec.Huffman] > speeds[codec.LempelZiv] && speeds[codec.Huffman] > speeds[codec.BurrowsWheeler] &&
		speeds[codec.LempelZiv] > speeds[codec.Arithmetic] {
		notes = append(notes, "shape holds: Huffman reduces fastest, both dictionary methods slower, Lempel-Ziv faster than arithmetic")
	} else {
		notes = append(notes, "SHAPE MISMATCH: expected Huffman > {LZ, BWT} and LZ > arithmetic")
	}
	return &Report{ID: "fig4", Title: "Reducing speed per CPU", Tables: []stats.Table{tbl}, Notes: notes}, nil
}

// Figure5 validates that the simulated links reproduce the paper's measured
// transfer speeds and variability.
func Figure5(o Options) (*Report, error) {
	o = o.withDefaults()
	tbl := stats.Table{
		Title:   "Figure 5: transfer speed of communication lines",
		Columns: []string{"line", "measured MB/s", "measured std %", "paper MB/s", "paper std %"},
	}
	const blocks = 400
	for i, prof := range netsim.Profiles() {
		clk := netsim.NewVirtual()
		link := netsim.NewLink(prof, clk, o.Seed+int64(i))
		blockSize := 1 << 20
		if prof.RateBps < 1e6 {
			blockSize = 128 << 10 // keep slow-line virtual time sane
		}
		var rates []float64
		for b := 0; b < blocks; b++ {
			d := link.Send(blockSize)
			rates = append(rates, float64(blockSize)/d.Seconds())
		}
		mean := stats.Mean(rates)
		stdPct := stats.Std(rates) / mean * 100
		ref := paperFig5[i]
		tbl.AddRow(prof.Name,
			fmt.Sprintf("%.4f", mean/1e6),
			fmt.Sprintf("%.2f", stdPct),
			fmt.Sprintf("%.4f", ref.MBs),
			fmt.Sprintf("%.2f", ref.StdPct))
	}
	return &Report{
		ID: "fig5", Title: "Link transfer speeds",
		Tables: []stats.Table{tbl},
		Notes:  []string{fmt.Sprintf("%d blocks per line on warm simulated links; paper values are the calibration targets", blocks)},
	}, nil
}

// Figure6 reproduces the per-field-class molecular compression ratios.
func Figure6(o Options) (*Report, error) {
	o = o.withDefaults()
	recSize := datagen.MolecularFormat().RecordSize()
	atoms := datagen.Molecular(o.DataBytes/recSize, o.Seed)
	types, vels, coords, err := datagen.MolecularColumns(atoms)
	if err != nil {
		return nil, err
	}
	tbl := stats.Table{
		Title:   "Figure 6: compressed size per molecular field class (percent of original)",
		Columns: []string{"kind of data", "method", "measured %", "paper % (est)"},
	}
	classes := []struct {
		name string
		data []byte
	}{{"type", types}, {"velocity", vels}, {"coordinates", coords}}
	meas := make(map[string]map[codec.Method]float64, 3)
	for _, cl := range classes {
		meas[cl.name] = make(map[codec.Method]float64, 4)
		for _, m := range paperMethods() {
			comp, err := compress(m, cl.data)
			if err != nil {
				return nil, err
			}
			pct := float64(len(comp)) / float64(len(cl.data)) * 100
			meas[cl.name][m] = pct
			tbl.AddRow(cl.name, m.String(),
				fmt.Sprintf("%.2f", pct),
				fmt.Sprintf("%.0f", paperFig6Percent[cl.name][m]))
		}
	}
	notes := []string{fmt.Sprintf("%d atoms serialized via PBIO; columns extracted per field class", len(atoms))}
	typeBest, _ := bestWorst(meas["type"])
	_, coordWorst := bestWorst(meas["coordinates"])
	if typeBest < 50 && coordWorst > 85 {
		notes = append(notes, "shape holds: types highly compressible, coordinates nearly incompressible")
	} else {
		notes = append(notes, "SHAPE MISMATCH vs Figure 6 expectations")
	}
	return &Report{ID: "fig6", Title: "Compression ratios, molecular data", Tables: []stats.Table{tbl}, Notes: notes}, nil
}

func bestWorst(m map[codec.Method]float64) (best, worst float64) {
	first := true
	for _, v := range m {
		if first {
			best, worst = v, v
			first = false
			continue
		}
		if v < best {
			best = v
		}
		if v > worst {
			worst = v
		}
	}
	return best, worst
}
