package experiments

import (
	"fmt"
	"time"

	"ccx/internal/codec"
	"ccx/internal/core"
	"ccx/internal/datagen"
	"ccx/internal/netsim"
	"ccx/internal/sampling"
	"ccx/internal/selector"
	"ccx/internal/trace"
)

// Figure7 renders the MBone connection-count trace driving §4.2.
func Figure7(o Options) (*Report, error) {
	o = o.withDefaults()
	tr := trace.MBoneSynthetic(o.Seed)
	s := Series{
		Title:  "Figure 7: number of connections",
		XLabel: "time (seconds)",
		YLabel: "number of connections",
	}
	for _, sm := range tr.Samples() {
		if sm.T.Seconds() > o.TraceSeconds {
			break
		}
		s.Points = append(s.Points, Point{X: sm.T.Seconds(), Y: float64(sm.Connections)})
	}
	return &Report{
		ID: "fig7", Title: "MBone connection trace",
		Series: []Series{{Title: s.Title, XLabel: s.XLabel, YLabel: s.YLabel, Points: s.Points}},
		Notes:  []string{"synthetic trace matching the published envelope (0-20 connections over 160 s)"},
	}, nil
}

// methodCode maps methods onto the paper's y-axis labels: 1 = none,
// 2 = Lempel-Ziv, 3 = Burrows-Wheeler, 4 = Huffman (Figures 8 and 11).
func methodCode(m codec.Method) int {
	switch m {
	case codec.LempelZiv:
		return 2
	case codec.BurrowsWheeler:
		return 3
	case codec.Huffman:
		return 4
	default:
		return 1
	}
}

// adaptiveSample is one block of an adaptive run, timestamped in virtual
// seconds.
type adaptiveSample struct {
	T      float64 // completion time, seconds into the run
	Result core.BlockResult
	// ChargedCompress is the virtual compression time charged to the
	// timeline at the paper's per-method speeds.
	ChargedCompress time.Duration
}

// adaptiveRun holds one simulated §4.2 scenario.
type adaptiveRun struct {
	Samples  []adaptiveSample
	SendBusy time.Duration
	CompBusy time.Duration
	Total    time.Duration
	Wire     int64
	Orig     int64
}

// chargeCompress converts a block outcome into the Sun-Fire-equivalent
// compression time (see paperCompressBps), scaled by K.
func chargeCompress(info codec.BlockInfo, k float64) time.Duration {
	bps, ok := paperCompressBps[info.Requested]
	if !ok || info.Requested == codec.None {
		return 0
	}
	return time.Duration(float64(info.OrigLen) / (bps / k) * float64(time.Second))
}

// scenario describes one simulated §4.2 run.
type scenario struct {
	data     []byte        // block source, cycled as needed
	duration time.Duration // virtual time budget
	maxBytes int64         // stop after this many original bytes (0 = none)
	// heavyLoad saturates the link above 14 connections instead of 20 —
	// the §5 conclusion regime, where the ×4 MBone load consumes ~90 % of
	// the 100 MBit link on average.
	heavyLoad bool
	// traceOffset starts the run that far into the MBone trace (the
	// conclusion runs sample the loaded mid-trace region).
	traceOffset time.Duration
	// link overrides the 100 MBit profile (zero value = Fast100).
	link netsim.Profile
	// selector overrides pieces of the decision config when non-zero.
	blockSize      int
	thresholdScale float64 // multiplies SendVsReduce and StrongVsReduce
	probeSize      int
	// policy overrides the decision policy (nil = the published ratio
	// algorithm; fixed(m) = the non-adaptive baselines).
	policy func(selector.Config) selector.Policy
}

// fixedPolicy disables adaptation: every block is sent with one method.
// fixed(codec.None) reproduces the paper's "without compression" runs.
type fixedPolicy struct{ m codec.Method }

func (p fixedPolicy) Name() string { return "fixed " + p.m.String() }

func (p fixedPolicy) Select(in selector.Inputs) selector.Decision {
	return selector.Decision{Method: p.m, Inputs: in}
}

// fixed returns a scenario policy that sends every block with m.
func fixed(m codec.Method) func(selector.Config) selector.Policy {
	return func(selector.Config) selector.Policy { return fixedPolicy{m} }
}

// loadConfigFor builds the background-load mapping for a scenario.
func loadConfigFor(sc scenario, prof netsim.Profile, start time.Time) trace.LoadConfig {
	cfg := trace.DefaultLoadConfig(prof, start.Add(-sc.traceOffset))
	if sc.heavyLoad {
		// 90 % consumption at 14 connections (the mid-trace mean): the mean
		// load lands near the ~90 % the paper's §5 totals imply, while the
		// trace's dips still let the selector breathe.
		cfg.PerConnBps = prof.RateBps * 0.90 / (14 * 4)
	}
	return cfg
}

// scaledBlockSize divides the paper's 128 KB block by K (floor 4 KB).
// Scaling block size together with link and CPU rates keeps the per-block
// send-time/reduce-time ratios — and the number of blocks per run — equal
// to the paper's at any K.
func scaledBlockSize(k float64) int {
	bs := int(float64(128<<10) / k)
	if bs < 4<<10 {
		bs = 4 << 10
	}
	// Keep blocks 1 KB-aligned for tidy accounting.
	return bs &^ 1023
}

// runAdaptive streams blocks cut from the scenario's data through a loaded
// 100 MBit/s link until the virtual clock passes the duration or maxBytes
// have been sent, using the paper's block loop.
func runAdaptive(o Options, sc scenario) (*adaptiveRun, error) {
	k := o.TimeScale
	data := sc.data
	clk := netsim.NewVirtual()
	start := clk.Now()
	baseProf := sc.link
	if baseProf.RateBps == 0 {
		baseProf = netsim.Fast100
	}
	prof := scaleProfile(baseProf, k)
	link := netsim.NewLink(prof, clk, o.Seed)
	tr := trace.MBoneSynthetic(o.Seed)
	link.SetLoad(tr.LoadFunc(loadConfigFor(sc, prof, start), prof))

	// Deterministic CPU model: the engine's clock ticks a fixed amount per
	// reading, so every probe "takes" exactly one tick and its reducing
	// speed depends only on how much the sample shrank — no wall-clock
	// noise. The scale lands a typical commercial probe (≈70 % reduction of
	// the 4 KB sample) on the paper's Figure 4 Lempel-Ziv speed over K.
	const probeTick = time.Millisecond
	cpuClock := time.Unix(0, 0)
	now := func() time.Time {
		cpuClock = cpuClock.Add(probeTick)
		return cpuClock
	}
	const refReduction = 0.7 * float64(sampling.DefaultProbeSize)
	speedScale := (refReduction / probeTick.Seconds()) / (paperLZReducingBps / k)

	selCfg := selector.DefaultConfig()
	selCfg.BlockSize = scaledBlockSize(k)
	if sc.blockSize > 0 {
		selCfg.BlockSize = sc.blockSize
	}
	if sc.thresholdScale > 0 {
		selCfg.SendVsReduce *= sc.thresholdScale
		selCfg.StrongVsReduce *= sc.thresholdScale
	}
	// The probe stays at the paper's absolute 4 KB (the sampler caps it at
	// the block length): proportionally smaller samples would be dominated
	// by code-table overhead and misreport compressibility.
	var policy selector.Policy
	if sc.policy != nil {
		policy = sc.policy(selCfg)
	}
	engine, err := core.NewEngine(core.Config{
		Selector:   selCfg,
		ProbeSize:  sc.probeSize,
		Policy:     policy,
		Now:        now,
		SpeedScale: speedScale,
	})
	if err != nil {
		return nil, err
	}
	session := core.NewSession(engine)

	run := &adaptiveRun{}
	bs := engine.BlockSize()
	off := 0
	nextBlock := func() []byte {
		if len(data) == 0 {
			return nil
		}
		if off+bs > len(data) {
			off = 0
		}
		b := data[off : off+bs]
		off += bs
		return b
	}
	send := func(frame []byte) (time.Duration, error) {
		return link.Send(len(frame)), nil
	}
	for block := nextBlock(); block != nil; block = nextBlock() {
		if clk.Now().Sub(start) >= sc.duration {
			break
		}
		if sc.maxBytes > 0 && run.Orig >= sc.maxBytes {
			break
		}
		res, err := session.TransmitBlock(block, send)
		if err != nil {
			return nil, err
		}
		charged := chargeCompress(res.Info, k)
		clk.Advance(charged)
		run.SendBusy += res.SendTime
		run.CompBusy += charged
		run.Wire += int64(res.WireBytes)
		run.Orig += int64(res.Info.OrigLen)
		run.Samples = append(run.Samples, adaptiveSample{
			T:               clk.Now().Sub(start).Seconds(),
			Result:          res,
			ChargedCompress: charged,
		})
	}
	run.Total = clk.Now().Sub(start)
	return run, nil
}

// commercialAdaptive runs the §4.2 commercial scenario once (shared by
// Figures 8, 9 and 10).
func commercialAdaptive(o Options) (*adaptiveRun, error) {
	o = o.withDefaults()
	data := datagen.OISTransactions(4<<20, 0.9, o.Seed)
	return runAdaptive(o, scenario{
		data:     data,
		duration: time.Duration(o.TraceSeconds * float64(time.Second)),
	})
}

// molecularAdaptive runs the §4.2 molecular scenario (Figures 11 and 12):
// PBIO record batches with occasional repetitive topology blocks, matching
// the paper's "some small portions of the data have strings repetitions".
func molecularAdaptive(o Options) (*adaptiveRun, error) {
	o = o.withDefaults()
	recSize := datagen.MolecularFormat().RecordSize()
	atoms := datagen.Molecular((3<<20)/recSize, o.Seed)
	batch, err := datagen.MolecularBatch(atoms)
	if err != nil {
		return nil, err
	}
	// Interleave a topology/metadata block (repetitive text) every 8 data
	// blocks' worth of records.
	topo := datagen.OISTransactions(128<<10, 0.95, o.Seed+7)
	var stream []byte
	chunk := 8 * 128 << 10
	for off := 0; off < len(batch); off += chunk {
		end := off + chunk
		if end > len(batch) {
			end = len(batch)
		}
		stream = append(stream, batch[off:end]...)
		stream = append(stream, topo...)
	}
	return runAdaptive(o, scenario{
		data:     stream,
		duration: time.Duration(o.TraceSeconds * float64(time.Second)),
	})
}

func methodSeries(title string, run *adaptiveRun) Series {
	s := Series{Title: title, XLabel: "time (seconds)", YLabel: "method of compression (1=none 2=LZ 3=BWT 4=Huffman)"}
	for _, sm := range run.Samples {
		s.Points = append(s.Points, Point{X: sm.T, Y: float64(methodCode(sm.Result.Decision.Method))})
	}
	return s
}

func methodMixNotes(run *adaptiveRun) []string {
	counts := map[codec.Method]int{}
	for _, sm := range run.Samples {
		counts[sm.Result.Decision.Method]++
	}
	return []string{
		fmt.Sprintf("blocks: %d  mix: none=%d lz=%d bwt=%d huffman=%d",
			len(run.Samples), counts[codec.None], counts[codec.LempelZiv],
			counts[codec.BurrowsWheeler], counts[codec.Huffman]),
		fmt.Sprintf("wire bytes %d of %d original (%.1f%%)", run.Wire, run.Orig,
			float64(run.Wire)/float64(run.Orig)*100),
	}
}

// Figure8 plots the selected method over time for the commercial stream.
func Figure8(o Options) (*Report, error) {
	run, err := commercialAdaptive(o)
	if err != nil {
		return nil, err
	}
	notes := append(methodMixNotes(run),
		"paper shape: no compression under light load, then Lempel-Ziv, then Burrows-Wheeler at peak load")
	return &Report{
		ID: "fig8", Title: "Method selection over time, commercial data",
		Series: []Series{methodSeries("Figure 8: method of compression", run)},
		Notes:  notes,
	}, nil
}

// Figure9 plots per-block compression time for the same run.
func Figure9(o Options) (*Report, error) {
	run, err := commercialAdaptive(o)
	if err != nil {
		return nil, err
	}
	s := Series{Title: "Figure 9: time of compression", XLabel: "time (seconds)", YLabel: "compression time (microseconds)"}
	for _, sm := range run.Samples {
		s.Points = append(s.Points, Point{X: sm.T, Y: float64(sm.ChargedCompress.Microseconds())})
	}
	return &Report{
		ID: "fig9", Title: "Compression time over time, commercial data",
		Series: []Series{s},
		Notes: []string{
			"compression charged at the paper's per-method Sun-Fire speeds (see DESIGN.md)",
			fmt.Sprintf("compression busy %.2fs of %.2fs total (%.0f%%)",
				run.CompBusy.Seconds(), run.Total.Seconds(),
				100*run.CompBusy.Seconds()/run.Total.Seconds()),
		},
	}, nil
}

// Figure10 plots compressed block sizes for the same run.
func Figure10(o Options) (*Report, error) {
	run, err := commercialAdaptive(o)
	if err != nil {
		return nil, err
	}
	s := Series{Title: "Figure 10: size of compressed blocks", XLabel: "time (seconds)", YLabel: "size of block (bytes)"}
	for _, sm := range run.Samples {
		s.Points = append(s.Points, Point{X: sm.T, Y: float64(sm.Result.Info.CompLen)})
	}
	return &Report{
		ID: "fig10", Title: "Compressed block sizes, commercial data",
		Series: []Series{s},
		Notes:  []string{"uncompressed blocks sit at the (scaled) block size; compressed ones drop with method strength"},
	}, nil
}

// Figure11 plots the selected method over time for the molecular stream.
func Figure11(o Options) (*Report, error) {
	run, err := molecularAdaptive(o)
	if err != nil {
		return nil, err
	}
	notes := append(methodMixNotes(run),
		"paper shape: mostly Huffman, with Lempel-Ziv/Burrows-Wheeler islands on the repetitive portions")
	return &Report{
		ID: "fig11", Title: "Method selection over time, molecular data",
		Series: []Series{methodSeries("Figure 11: method of compression", run)},
		Notes:  notes,
	}, nil
}

// Figure12 plots compressed block sizes for the molecular stream.
func Figure12(o Options) (*Report, error) {
	run, err := molecularAdaptive(o)
	if err != nil {
		return nil, err
	}
	s := Series{Title: "Figure 12: size of compressed blocks", XLabel: "time (seconds)", YLabel: "size of block (bytes)"}
	for _, sm := range run.Samples {
		s.Points = append(s.Points, Point{X: sm.T, Y: float64(sm.Result.Info.CompLen)})
	}
	return &Report{
		ID: "fig12", Title: "Compressed block sizes, molecular data",
		Series: []Series{s},
		Notes:  []string{"molecular blocks barely shrink except on the repetitive topology portions"},
	}, nil
}
