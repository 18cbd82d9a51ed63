package experiments

import (
	"fmt"
	"strings"
	"testing"

	"ccx/internal/codec"
)

func runQuick(t *testing.T, id string) *Report {
	t.Helper()
	r, err := Run(id, Quick())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if r.ID != id {
		t.Fatalf("report id = %q", r.ID)
	}
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatalf("%s render: %v", id, err)
	}
	if sb.Len() == 0 {
		t.Fatalf("%s rendered nothing", id)
	}
	return r
}

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	want := []string{"ablation-blocksize", "ablation-methods", "ablation-policy",
		"ablation-probe", "ablation-thresholds", "conclusion", "fig1", "fig10",
		"fig11", "fig12", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v", ids)
		}
	}
	if _, err := Run("nope", Quick()); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func noShapeMismatch(t *testing.T, r *Report) {
	t.Helper()
	for _, n := range r.Notes {
		if strings.Contains(n, "SHAPE MISMATCH") {
			t.Errorf("%s: %s", r.ID, n)
		}
	}
}

func TestFigure1(t *testing.T) {
	r := runQuick(t, "fig1")
	if len(r.Tables) != 1 || len(r.Tables[0].Rows) != 24 {
		t.Fatalf("fig1 table shape: %d tables", len(r.Tables))
	}
}

func TestMethodTableMatchesPaper(t *testing.T) {
	if len(paperFig1) != len(paperMethods()) {
		t.Fatalf("table has %d methods", len(paperFig1))
	}
	// Spot-check the paper's most decision-relevant cells (rows in paper
	// order: repetitions, low entropy, efficiency, compress, decompress,
	// global).
	if paperFig1[codec.BurrowsWheeler][3] != poor {
		t.Error("BWT compression time should be Poor")
	}
	if paperFig1[codec.Huffman][5] != excellent {
		t.Error("Huffman global time should be Excellent")
	}
	if paperFig1[codec.LempelZiv][0] != excellent {
		t.Error("LZ string repetition should be Excellent")
	}
	if paperFig1[codec.Arithmetic][2] != poor {
		t.Error("Arithmetic efficiency should be Poor")
	}
	// Every cell is rated for every method.
	for _, m := range paperMethods() {
		for d, r := range paperFig1[m] {
			if r == 0 {
				t.Errorf("%v: missing rating in row %d", m, d)
			}
		}
	}
}

func TestRatingString(t *testing.T) {
	if poor.String() != "Poor" || excellent.String() != "Excellent" ||
		satisfactory.String() != "Satisfactory" || good.String() != "Good" {
		t.Fatal("rating labels wrong")
	}
	if rating(99).String() != "Unknown" {
		t.Fatal("unknown rating label")
	}
}

func TestFigure2Shape(t *testing.T) {
	noShapeMismatch(t, runQuick(t, "fig2"))
}

func TestFigure3Shape(t *testing.T) {
	noShapeMismatch(t, runQuick(t, "fig3"))
}

func TestFigure4Shape(t *testing.T) {
	noShapeMismatch(t, runQuick(t, "fig4"))
}

func TestFigure5MatchesPaperRates(t *testing.T) {
	r := runQuick(t, "fig5")
	tbl := r.Tables[0]
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Measured mean must be within 10% of the paper value for each line.
	for _, row := range tbl.Rows {
		var measured, paper float64
		if _, err := sscan(row[1], &measured); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(row[3], &paper); err != nil {
			t.Fatal(err)
		}
		if measured < paper*0.85 || measured > paper*1.15 {
			t.Errorf("%s: measured %.4f vs paper %.4f", row[0], measured, paper)
		}
	}
}

func TestFigure6Shape(t *testing.T) {
	noShapeMismatch(t, runQuick(t, "fig6"))
}

func TestFigure7TraceShape(t *testing.T) {
	r := runQuick(t, "fig7")
	pts := r.Series[0].Points
	if len(pts) < 10 {
		t.Fatalf("only %d points", len(pts))
	}
	max := 0.0
	for _, p := range pts {
		if p.Y > max {
			max = p.Y
		}
		if p.Y < 0 || p.Y > 20 {
			t.Fatalf("connection count %v out of range", p.Y)
		}
	}
	if max < 10 {
		t.Fatalf("trace never ramps up (max %v)", max)
	}
}

func TestFigure8AdaptationShape(t *testing.T) {
	r := runQuick(t, "fig8")
	pts := r.Series[0].Points
	if len(pts) < 5 {
		t.Fatalf("only %d blocks", len(pts))
	}
	// First block is always uncompressed (code 1).
	if pts[0].Y != 1 {
		t.Fatalf("first block code = %v", pts[0].Y)
	}
	// Under MBone load the run must reach a dictionary method.
	sawDict := false
	for _, p := range pts {
		if p.Y == 2 || p.Y == 3 {
			sawDict = true
		}
	}
	if !sawDict {
		t.Fatalf("commercial run never compressed: %+v", pts)
	}
}

func TestFigure9CompressionShare(t *testing.T) {
	r := runQuick(t, "fig9")
	if len(r.Series[0].Points) == 0 {
		t.Fatal("no points")
	}
	for _, p := range r.Series[0].Points {
		if p.Y < 0 {
			t.Fatal("negative compression time")
		}
	}
}

func TestFigure10BlockSizes(t *testing.T) {
	r := runQuick(t, "fig10")
	for _, p := range r.Series[0].Points {
		if p.Y <= 0 || p.Y > 140000 {
			t.Fatalf("block size %v out of the paper's plot range", p.Y)
		}
	}
}

func TestFigure11MolecularShape(t *testing.T) {
	r := runQuick(t, "fig11")
	counts := map[float64]int{}
	for _, p := range r.Series[0].Points {
		counts[p.Y]++
	}
	// Paper: most molecular blocks go to Huffman once load rises; dictionary
	// methods appear only on the repetitive topology islands.
	if counts[4] == 0 {
		t.Fatalf("no Huffman blocks in molecular run: %v", counts)
	}
}

func TestFigure12MolecularSizes(t *testing.T) {
	r := runQuick(t, "fig12")
	if len(r.Series[0].Points) == 0 {
		t.Fatal("no points")
	}
}

func TestConclusionShape(t *testing.T) {
	r := runQuick(t, "conclusion")
	noShapeMismatch(t, r)
	if len(r.Tables[0].Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Tables[0].Rows))
	}
}

func TestMethodCode(t *testing.T) {
	want := map[codec.Method]int{
		codec.None: 1, codec.LempelZiv: 2, codec.BurrowsWheeler: 3,
		codec.Huffman: 4, codec.Arithmetic: 1,
	}
	for m, c := range want {
		if methodCode(m) != c {
			t.Errorf("methodCode(%v) = %d want %d", m, methodCode(m), c)
		}
	}
}

// sscan parses a single float from s.
func sscan(s string, out *float64) (int, error) {
	return fmt.Sscan(s, out)
}

func TestRenderCSV(t *testing.T) {
	r := runQuick(t, "fig7")
	var sb strings.Builder
	if err := r.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "series,") {
		t.Fatalf("csv header missing:\n%.100s", out)
	}
	lines := strings.Count(out, "\n")
	if lines < 10 {
		t.Fatalf("only %d csv lines", lines)
	}
	// Tables render too.
	r2 := runQuick(t, "fig5")
	sb.Reset()
	if err := r2.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "table,line") {
		t.Fatal("table csv header missing")
	}
}
