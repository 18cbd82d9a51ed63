package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateReports = flag.Bool("update-reports", false, "rewrite testdata/reports_quick.txt from the current reports")

// goldenReports are the reports whose every cell comes from the virtual
// clocks of the simulated link and the tick-driven CPU model, so they read
// the same on any machine: the MBone trace and the adaptive runs.
var goldenReports = []string{
	"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "conclusion",
	"ablation-methods", "ablation-thresholds", "ablation-blocksize",
	"ablation-probe", "ablation-policy",
}

// TestReportsGolden pins the reproduction: each golden report's CSV at
// Quick() is summed up as a line count and a SHA-256, followed by the
// report's notes so that a change reads as a diff. A refactor of the block
// loop must leave testdata/reports_quick.txt untouched; -update-reports
// rewrites it.
func TestReportsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, id := range goldenReports {
		r, err := Run(id, Quick())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var csv bytes.Buffer
		if err := r.RenderCSV(&csv); err != nil {
			t.Fatalf("%s csv: %v", id, err)
		}
		fmt.Fprintf(&got, "%s %d %x\n", id, bytes.Count(csv.Bytes(), []byte("\n")), sha256.Sum256(csv.Bytes()))
		for _, n := range r.Notes {
			fmt.Fprintf(&got, "\tnote: %s\n", n)
		}
	}
	path := filepath.Join("testdata", "reports_quick.txt")
	if *updateReports {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-reports to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("reports differ from %s:\n--- got\n%s--- want\n%s", path, got.Bytes(), want)
	}
}
