package experiments

import (
	"fmt"
	"time"

	"ccx/internal/codec"
	"ccx/internal/datagen"
	"ccx/internal/netsim"
	"ccx/internal/selector"
	"ccx/internal/stats"
)

// Ablation experiments probe the design choices DESIGN.md calls out. They
// go beyond the paper's published evaluation but use the same simulated
// testbed, so their numbers are directly comparable to the figure
// reproductions.

// conclusionScenario returns the §5 heavy-load commercial setup that the
// ablations perturb one knob at a time.
func conclusionScenario(o Options) (scenario, []byte) {
	k := o.TimeScale
	blockSize := int64(scaledBlockSize(k))
	volume := int64(float64(20<<20) / k)
	if volume < blockSize {
		volume = blockSize
	}
	volume -= volume % blockSize
	data := datagen.OISTransactions(4<<20, 0.9, o.Seed)
	return scenario{
		data:        data,
		duration:    24 * time.Hour,
		maxBytes:    volume,
		heavyLoad:   true,
		traceOffset: 40 * time.Second,
	}, data
}

// AblationMethods compares every fixed method against the adaptive selector
// across the paper's four link classes. The paper's claim — adaptation
// matches or beats the best fixed choice on each link without knowing the
// link in advance — falls out of the table.
func AblationMethods(o Options) (*Report, error) {
	o = o.withDefaults()
	base, _ := conclusionScenario(o)
	// A smaller volume keeps the slow links affordable; relative totals are
	// what the comparison needs.
	base.maxBytes /= 4
	if base.maxBytes < int64(scaledBlockSize(o.TimeScale)) {
		base.maxBytes = int64(scaledBlockSize(o.TimeScale))
	}

	links := []netsim.Profile{netsim.Gigabit, netsim.Fast100, netsim.Slow1M, netsim.International}
	modes := []struct {
		name   string
		policy func(selector.Config) selector.Policy
	}{
		{"adaptive", nil},
		{"fixed none", fixed(codec.None)},
		{"fixed huffman", fixed(codec.Huffman)},
		{"fixed lempel-ziv", fixed(codec.LempelZiv)},
		{"fixed burrows-wheeler", fixed(codec.BurrowsWheeler)},
	}
	tbl := stats.Table{
		Title:   "Ablation: total exchange time (s) per link, fixed methods vs adaptive",
		Columns: []string{"link", "adaptive", "none", "huffman", "lempel-ziv", "burrows-wheeler", "adaptive rank"},
	}
	notes := []string{}
	adaptiveAlwaysNearBest := true
	for _, link := range links {
		row := []string{link.Name}
		totals := make([]float64, 0, len(modes))
		for _, mode := range modes {
			sc := base
			sc.link = link
			sc.policy = mode.policy
			run, err := runAdaptive(o, sc)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", link.Name, mode.name, err)
			}
			totals = append(totals, run.Total.Seconds())
			row = append(row, fmt.Sprintf("%.2f", run.Total.Seconds()))
		}
		adaptive := totals[0]
		best := totals[1]
		rank := 1
		for _, t := range totals[1:] {
			if t < best {
				best = t
			}
			if t < adaptive {
				rank++
			}
		}
		row = append(row, fmt.Sprintf("%d of %d", rank, len(modes)))
		tbl.Rows = append(tbl.Rows, row)
		// Adaptation never needs to be the absolute winner, but it must stay
		// within 25 % of the best fixed method on every link.
		if adaptive > best*1.25 {
			adaptiveAlwaysNearBest = false
			notes = append(notes, fmt.Sprintf("SHAPE MISMATCH on %s: adaptive %.2fs vs best fixed %.2fs",
				link.Name, adaptive, best))
		}
	}
	if adaptiveAlwaysNearBest {
		notes = append(notes, "shape holds: adaptive stays within 25% of the best fixed method on every link, with no per-link tuning")
	}
	return &Report{ID: "ablation-methods", Title: "Fixed methods vs adaptive across links",
		Tables: []stats.Table{tbl}, Notes: notes}, nil
}

// AblationThresholds sweeps a common multiplier over the paper's 0.83/3.48
// thresholds on the conclusion scenario. The published constants should sit
// near the minimum of the total-time curve.
func AblationThresholds(o Options) (*Report, error) {
	o = o.withDefaults()
	base, _ := conclusionScenario(o)
	tbl := stats.Table{
		Title:   "Ablation: threshold sensitivity (conclusion scenario)",
		Columns: []string{"threshold scale", "total (s)", "wire %", "mix (none/lz/bwt/huff)"},
	}
	scales := []float64{0.25, 0.5, 1, 2, 4, 8}
	totals := make([]float64, len(scales))
	for i, s := range scales {
		sc := base
		sc.thresholdScale = s
		run, err := runAdaptive(o, sc)
		if err != nil {
			return nil, err
		}
		totals[i] = run.Total.Seconds()
		counts := map[codec.Method]int{}
		for _, sm := range run.Samples {
			counts[sm.Result.Decision.Method]++
		}
		tbl.AddRow(fmt.Sprintf("%.2fx", s),
			fmt.Sprintf("%.2f", run.Total.Seconds()),
			fmt.Sprintf("%.1f", float64(run.Wire)/float64(run.Orig)*100),
			fmt.Sprintf("%d/%d/%d/%d", counts[codec.None], counts[codec.LempelZiv],
				counts[codec.BurrowsWheeler], counts[codec.Huffman]))
	}
	defaultTotal := totals[2] // scale 1x
	bestTotal := totals[0]
	for _, t := range totals {
		if t < bestTotal {
			bestTotal = t
		}
	}
	notes := []string{}
	if defaultTotal <= bestTotal*1.15 {
		notes = append(notes, "shape holds: the paper's published constants are within 15% of the sweep's best total")
	} else {
		notes = append(notes, fmt.Sprintf("published constants are %.0f%% off the sweep's best (%.2fs vs %.2fs)",
			(defaultTotal/bestTotal-1)*100, defaultTotal, bestTotal))
	}
	return &Report{ID: "ablation-thresholds", Title: "Threshold sensitivity",
		Tables: []stats.Table{tbl}, Notes: notes}, nil
}

// AblationBlockSize sweeps the transmission block size. Small blocks adapt
// faster but pay per-block overhead (code tables, headers, probes); large
// blocks amortize better but react sluggishly — the paper's 128 KB sits in
// the flat middle of the curve.
func AblationBlockSize(o Options) (*Report, error) {
	o = o.withDefaults()
	base, _ := conclusionScenario(o)
	paperBS := scaledBlockSize(o.TimeScale)
	tbl := stats.Table{
		Title:   "Ablation: block size (conclusion scenario; 1.00x = the paper's scaled 128 KB)",
		Columns: []string{"block size", "blocks", "total (s)", "wire %"},
	}
	for _, mult := range []float64{0.25, 0.5, 1, 2, 4} {
		sc := base
		sc.blockSize = int(float64(paperBS) * mult)
		if sc.blockSize < 1024 {
			sc.blockSize = 1024
		}
		run, err := runAdaptive(o, sc)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(fmt.Sprintf("%.2fx (%d B)", mult, sc.blockSize),
			fmt.Sprintf("%d", len(run.Samples)),
			fmt.Sprintf("%.2f", run.Total.Seconds()),
			fmt.Sprintf("%.1f", float64(run.Wire)/float64(run.Orig)*100))
	}
	return &Report{ID: "ablation-blocksize", Title: "Block size sweep",
		Tables: []stats.Table{tbl},
		Notes:  []string{"the paper chose 128 KB 'according to the efficiency of compression methods' (refs [32,33])"}}, nil
}

// AblationProbeSize sweeps the sampling probe. Tiny probes misjudge
// compressibility (code-table overhead dominates); the paper's 4 KB is the
// knee of the accuracy curve.
func AblationProbeSize(o Options) (*Report, error) {
	o = o.withDefaults()
	base, _ := conclusionScenario(o)
	tbl := stats.Table{
		Title:   "Ablation: probe size (conclusion scenario; paper uses 4096)",
		Columns: []string{"probe bytes", "total (s)", "wire %", "probe ratio error"},
	}
	for _, probe := range []int{256, 1024, 4096, 16384} {
		sc := base
		sc.probeSize = probe
		run, err := runAdaptive(o, sc)
		if err != nil {
			return nil, err
		}
		// Probe-ratio error: mean |probe ratio − achieved block ratio| over
		// blocks that were dictionary-compressed.
		var errSum float64
		var n int
		for _, sm := range run.Samples {
			d := sm.Result.Decision
			if d.Method != codec.LempelZiv {
				continue
			}
			achieved := sm.Result.Info.Ratio()
			diff := d.Inputs.ProbeRatio - achieved
			if diff < 0 {
				diff = -diff
			}
			errSum += diff
			n++
		}
		errStr := "-"
		if n > 0 {
			errStr = fmt.Sprintf("%.3f", errSum/float64(n))
		}
		tbl.AddRow(fmt.Sprintf("%d", probe),
			fmt.Sprintf("%.2f", run.Total.Seconds()),
			fmt.Sprintf("%.1f", float64(run.Wire)/float64(run.Orig)*100),
			errStr)
	}
	return &Report{ID: "ablation-probe", Title: "Probe size sweep",
		Tables: []stats.Table{tbl},
		Notes:  []string{"probe ratio error = mean |predicted − achieved| compression ratio on Lempel-Ziv blocks"}}, nil
}

// AblationPolicies compares the published ratio-gated selection algorithm
// against the Figure 6 characteristic-driven refinement on both §4.2
// workloads under the conclusion regime.
func AblationPolicies(o Options) (*Report, error) {
	o = o.withDefaults()
	base, _ := conclusionScenario(o)

	recSize := datagen.MolecularFormat().RecordSize()
	atoms := datagen.Molecular((2<<20)/recSize, o.Seed)
	molBatch, err := datagen.MolecularBatch(atoms)
	if err != nil {
		return nil, err
	}

	policies := []struct {
		name string
		mk   func(selector.Config) selector.Policy
	}{
		{"ratio (published)", func(c selector.Config) selector.Policy { return selector.RatioPolicy{Config: c} }},
		{"characteristic", func(c selector.Config) selector.Policy { return selector.CharacteristicPolicy{Config: c} }},
	}
	datasets := []struct {
		name string
		data []byte
	}{
		{"commercial", base.data},
		{"molecular", molBatch},
	}
	tbl := stats.Table{
		Title:   "Ablation: selection policy (conclusion scenario)",
		Columns: []string{"dataset", "policy", "total (s)", "wire %", "mix (none/lz/bwt/huff)"},
	}
	for _, ds := range datasets {
		for _, pol := range policies {
			sc := base
			sc.data = ds.data
			sc.policy = pol.mk
			run, err := runAdaptive(o, sc)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", ds.name, pol.name, err)
			}
			counts := map[codec.Method]int{}
			for _, sm := range run.Samples {
				counts[sm.Result.Decision.Method]++
			}
			tbl.AddRow(ds.name, pol.name,
				fmt.Sprintf("%.2f", run.Total.Seconds()),
				fmt.Sprintf("%.1f", float64(run.Wire)/float64(run.Orig)*100),
				fmt.Sprintf("%d/%d/%d/%d", counts[codec.None], counts[codec.LempelZiv],
					counts[codec.BurrowsWheeler], counts[codec.Huffman]))
		}
	}
	return &Report{ID: "ablation-policy", Title: "Selection policy comparison",
		Tables: []stats.Table{tbl},
		Notes: []string{
			"the characteristic policy chooses the method family from probe entropy/repetition (Figure 6's criteria)",
		}}, nil
}
