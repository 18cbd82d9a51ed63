package experiments

import (
	"fmt"
	"time"

	"ccx/internal/codec"

	"ccx/internal/datagen"
	"ccx/internal/stats"
)

// Conclusion reproduces the §5 end-to-end totals: the commercial dataset on
// a variable-load 100 MBit/s link took 10.7142 s with configurable
// compression (compression slightly more than 60 % of that) against
// 29.1388 s without; the molecular dataset went the other way, from ~29 s
// raw to ~30.5 s with compression.
//
// The transported volume is the paper-implied ≈20 MiB of transactional
// data divided by the TimeScale K; the reported virtual durations are in
// paper-equivalent seconds. Absolute totals land where the load dynamics
// put them — the comparison targets are who wins and by roughly what
// factor, with the compression share of total time as the cross-check.
func Conclusion(o Options) (*Report, error) {
	o = o.withDefaults()
	k := o.TimeScale

	// The conclusion runs sample the loaded mid-trace region under the
	// heavy ×4 MBone load (see scenario.heavyLoad): the paper's published
	// totals imply a mean effective rate near 0.7 MB/s on the 7.5 MB/s
	// link, i.e. ~90 % background consumption.
	const traceOffset = 40 * time.Second
	base := scenario{heavyLoad: true, traceOffset: traceOffset}

	// Transported volume: the paper's published totals imply ≈20 MB of
	// transactional data (29.1388 s at the ~0.69 MB/s the loaded link
	// sustains). The volume is fixed — per-run totals then fall where the
	// load dynamics put them, exactly as in the paper's measurements.
	const paperImpliedVolume = 20 << 20
	blockSize := int64(scaledBlockSize(k))
	volume := int64(float64(paperImpliedVolume) / k)
	if volume < blockSize {
		volume = blockSize
	}
	volume -= volume % blockSize
	rawVolume := volume

	commercial := datagen.OISTransactions(4<<20, 0.9, o.Seed)
	longRun := 24 * time.Hour // byte-bounded, not time-bounded

	commRaw := base
	commRaw.data, commRaw.duration, commRaw.maxBytes, commRaw.policy = commercial, longRun, rawVolume, fixed(codec.None)
	rawRun, err := runAdaptive(o, commRaw)
	if err != nil {
		return nil, err
	}
	commAdapt := commRaw
	commAdapt.policy = nil
	adaptRun, err := runAdaptive(o, commAdapt)
	if err != nil {
		return nil, err
	}

	// Molecular stream, sized for the paper's ~29 s raw baseline.
	recSize := datagen.MolecularFormat().RecordSize()
	atoms := datagen.Molecular((2<<20)/recSize, o.Seed)
	molBatch, err := datagen.MolecularBatch(atoms)
	if err != nil {
		return nil, err
	}
	molVolume := volume
	molRawSc := base
	molRawSc.data, molRawSc.duration, molRawSc.maxBytes, molRawSc.policy = molBatch, longRun, molVolume, fixed(codec.None)
	molRaw, err := runAdaptive(o, molRawSc)
	if err != nil {
		return nil, err
	}
	molAdaptSc := molRawSc
	molAdaptSc.policy = nil
	molAdaptive, err := runAdaptive(o, molAdaptSc)
	if err != nil {
		return nil, err
	}

	tbl := stats.Table{
		Title:   "Section 5: end-to-end exchange totals (seconds, paper-equivalent virtual time)",
		Columns: []string{"dataset", "mode", "measured total (s)", "compress share", "paper total (s)"},
	}
	share := func(r *adaptiveRun) string {
		if r.Total <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f%%", 100*r.CompBusy.Seconds()/r.Total.Seconds())
	}
	tbl.AddRow("commercial", "no compression", fmt.Sprintf("%.3f", rawRun.Total.Seconds()), "-",
		fmt.Sprintf("%.4f", paperCommercialRawSeconds))
	tbl.AddRow("commercial", "configurable", fmt.Sprintf("%.3f", adaptRun.Total.Seconds()), share(adaptRun),
		fmt.Sprintf("%.4f", paperCommercialAdaptiveSeconds))
	tbl.AddRow("molecular", "no compression", fmt.Sprintf("%.3f", molRaw.Total.Seconds()), "-",
		fmt.Sprintf("%.1f", paperMolecularRawSeconds))
	tbl.AddRow("molecular", "configurable", fmt.Sprintf("%.3f", molAdaptive.Total.Seconds()), share(molAdaptive),
		fmt.Sprintf("%.1f", paperMolecularAdaptiveSecs))

	speedup := rawRun.Total.Seconds() / adaptRun.Total.Seconds()
	notes := []string{
		fmt.Sprintf("volumes: commercial %d bytes, molecular %d bytes (at K=%.0f; paper-implied 20 MiB at K=1)", rawVolume, molVolume, k),
		fmt.Sprintf("commercial speedup %.2fx (paper: %.2fx)", speedup,
			paperCommercialRawSeconds/paperCommercialAdaptiveSeconds),
	}
	if speedup > 1.5 {
		notes = append(notes, "shape holds: configurable compression wins big on commercial data")
	} else {
		notes = append(notes, "SHAPE MISMATCH: expected a large commercial speedup")
	}
	molRatio := molAdaptive.Total.Seconds() / molRaw.Total.Seconds()
	if molRatio > 0.85 {
		notes = append(notes, fmt.Sprintf("shape holds: molecular data gains little or loses (adaptive/raw = %.2f; paper 1.05)", molRatio))
	} else {
		notes = append(notes, fmt.Sprintf("molecular adaptive/raw = %.2f — stronger gain than the paper saw", molRatio))
	}
	return &Report{ID: "conclusion", Title: "End-to-end totals", Tables: []stats.Table{tbl}, Notes: notes}, nil
}
