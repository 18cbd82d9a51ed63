// Package datagen synthesizes the workloads of the paper's evaluation:
// molecular-dynamics frames (the scientific dataset of ref [4]), operational
// information system transactions (the commercial dataset of ref [2]), XML
// documents, and low-entropy / incompressible control streams.
//
// The paper's actual datasets are proprietary (a large company's OIS feed)
// or unavailable (the Georgia Tech MD runs), so these generators are tuned
// to reproduce the *compressibility structure* the paper reports: OIS data
// has heavy string repetition (LZ/BWT excel, Figure 2); MD coordinates are
// nearly incompressible, velocities middling, and atom types highly
// redundant (Figure 6). All generators are deterministic given a seed.
package datagen

import (
	"math"
	"math/rand"
	"strconv"

	"ccx/internal/pbio"
)

// Atom is one particle of the molecular-dynamics workload.
type Atom struct {
	Type     uint8
	Velocity [3]float64
	Coord    [3]float64
}

// MolecularFormat is the PBIO record layout for Atom.
func MolecularFormat() *pbio.Format {
	return &pbio.Format{
		Name: "md_atom",
		Fields: []pbio.Field{
			{Name: "type", Kind: pbio.Uint8, Count: 1},
			{Name: "velocity", Kind: pbio.Float32, Count: 3},
			{Name: "coordinates", Kind: pbio.Float64, Count: 3},
		},
	}
}

// elementWeights skews the atom-type distribution: biomolecular systems are
// mostly H/C/O with traces of N/S, giving the low-entropy "type" stream of
// Figure 6.
var elementWeights = []int{50, 25, 15, 8, 2}

// Molecular generates n atoms of a molecular-dynamics frame. Coordinates
// follow a slow random walk, so consecutive float64 values share exponent
// and high-mantissa bytes while low-mantissa bytes stay random — the
// "nearly but not quite incompressible" regime of the paper's Figure 6.
// Velocities are Maxwell-Boltzmann-like float32 values quantized to a
// 1/512 grid (trajectory formats store reduced precision), giving moderate
// compressibility; types are drawn from a small skewed alphabet (low
// entropy).
func Molecular(n int, seed int64) []Atom {
	rng := rand.New(rand.NewSource(seed))
	atoms := make([]Atom, n)
	var pos [3]float64
	totalW := 0
	for _, w := range elementWeights {
		totalW += w
	}
	for i := range atoms {
		t := rng.Intn(totalW)
		typ := 0
		for acc := 0; typ < len(elementWeights); typ++ {
			acc += elementWeights[typ]
			if t < acc {
				break
			}
		}
		atoms[i].Type = uint8(typ)
		for d := 0; d < 3; d++ {
			v := rng.NormFloat64() * math.Sqrt(1.0/(float64(typ)+1))
			atoms[i].Velocity[d] = math.Round(v*512) / 512
			pos[d] += rng.NormFloat64() * 0.02
			atoms[i].Coord[d] = pos[d]
		}
	}
	return atoms
}

// MolecularBatch serializes atoms into one PBIO record batch.
func MolecularBatch(atoms []Atom) ([]byte, error) {
	f := MolecularFormat()
	rec := pbio.NewRecord(f)
	buf := make([]byte, 0, len(atoms)*f.RecordSize())
	var err error
	for _, a := range atoms {
		rec.Ints[0][0] = int64(a.Type)
		for d := 0; d < 3; d++ {
			rec.Floats[1][d] = a.Velocity[d]
			rec.Floats[2][d] = a.Coord[d]
		}
		buf, err = pbio.AppendRecord(buf, f, rec)
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// MolecularColumns returns the three field-class streams of Figure 6:
// types, velocities and coordinates, each as packed bytes.
func MolecularColumns(atoms []Atom) (types, velocities, coords []byte, err error) {
	batch, err := MolecularBatch(atoms)
	if err != nil {
		return nil, nil, nil, err
	}
	f := MolecularFormat()
	if types, err = pbio.ExtractColumn(batch, f, 0); err != nil {
		return nil, nil, nil, err
	}
	if velocities, err = pbio.ExtractColumn(batch, f, 1); err != nil {
		return nil, nil, nil, err
	}
	if coords, err = pbio.ExtractColumn(batch, f, 2); err != nil {
		return nil, nil, nil, err
	}
	return types, velocities, coords, nil
}

// OIS workload vocabulary: airline-operations shaped, after the paper's
// reference [2] (an airline's operational information system).
var (
	oisEvents   = []string{"CHECKIN", "BOARDING", "REBOOK", "CANCEL", "UPGRADE", "BAGGAGE", "GATE_CHANGE", "DELAY"}
	oisAirports = []string{"ATL", "JFK", "LAX", "ORD", "DFW", "TLV", "CDG", "NRT", "SFO", "BOS"}
	oisCarriers = []string{"DL", "AA", "UA", "LY", "AF"}
	oisStatus   = []string{"OK", "HELD", "PENDING", "CONFIRMED"}
)

// appendPadded appends v in decimal, zero-padded to width digits.
func appendPadded(b []byte, v, width int) []byte {
	var buf [20]byte
	digits := strconv.AppendInt(buf[:0], int64(v), 10)
	for i := len(digits); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, digits...)
}

// pick appends one of words, chosen by rng.
func pick(b []byte, rng *rand.Rand, words []string) []byte {
	return append(b, words[rng.Intn(len(words))]...)
}

// OISTransactions generates approximately size bytes of transaction
// records with heavy string repetition. repetition ∈ [0,1] controls how
// often consecutive records reuse the previous record's flight context
// (higher = more repetitive = more LZ/BWT-friendly). Records are appended
// to one buffer sized up front: a benchmark's set-up is mostly this loop.
func OISTransactions(size int, repetition float64, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, 0, size+256)
	var flight []byte
	seqno := 100000
	for len(b) < size {
		if flight == nil || rng.Float64() > repetition {
			flight = pick(flight[:0], rng, oisCarriers)
			flight = appendPadded(flight, rng.Intn(10000), 4)
			flight = pick(append(flight, ' '), rng, oisAirports)
			flight = pick(append(flight, "->"...), rng, oisAirports)
		}
		seqno++
		b = strconv.AppendInt(append(b, "TXN "...), int64(seqno), 10)
		b = pick(append(b, ' '), rng, oisEvents)
		b = append(append(b, " flight="...), flight...)
		b = appendPadded(append(b, " pax=PX"...), rng.Intn(100000), 5)
		b = strconv.AppendInt(append(b, " seat="...), int64(rng.Intn(40)+1), 10)
		b = append(b, 'A'+byte(rng.Intn(6)))
		b = pick(append(b, " status="...), rng, oisStatus)
		b = appendPadded(append(b, " agent=GT"...), rng.Intn(30), 2)
		b = append(b, '\n')
	}
	return b[:size:size]
}

// XMLDocuments wraps OIS-like content in XML markup (the commercial/XML
// dataset class of the paper's abstract). Tag overhead raises repetition
// further.
func XMLDocuments(size int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, 0, size+512)
	b = append(b, "<?xml version=\"1.0\"?>\n<transactions>\n"...)
	for len(b) < size {
		b = strconv.AppendInt(append(b, "  <txn id=\""...), int64(rng.Intn(1000000)), 10)
		b = pick(append(b, "\">\n    <event>"...), rng, oisEvents)
		b = pick(append(b, "</event>\n    <carrier>"...), rng, oisCarriers)
		b = pick(append(b, "</carrier>\n    <route from=\""...), rng, oisAirports)
		b = pick(append(b, "\" to=\""...), rng, oisAirports)
		b = pick(append(b, "\"/>\n    <status>"...), rng, oisStatus)
		b = append(b, "</status>\n  </txn>\n"...)
	}
	return b[:size:size]
}

// LowEntropy generates size bytes drawn uniformly from an alphabet of the
// given cardinality — compressible by entropy coders but with little string
// structure beyond what chance provides.
func LowEntropy(size, alphabet int, seed int64) []byte {
	if alphabet < 1 {
		alphabet = 1
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, size)
	for i := range out {
		out[i] = byte(rng.Intn(alphabet))
	}
	return out
}

// Random generates size bytes of incompressible data.
func Random(size int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, size)
	rng.Read(out)
	return out
}
