package integration

import (
	"os/exec"
	"strings"
	"testing"
)

// dataPathCmds are the daemons and the two operator tools: what a
// deployment runs. `make loc` counts the same closure.
var dataPathCmds = []string{
	"ccx/cmd/ccbroker", "ccx/cmd/ccsend", "ccx/cmd/ccrecv", "ccx/cmd/ccstat", "ccx/cmd/cctrace",
}

// reproductionPkgs serve only the paper's reproduction: the ECho middleware
// and its record format, arithmetic coding, and the figure harness.
var reproductionPkgs = map[string]bool{
	"ccx/internal/echo":        true,
	"ccx/internal/pbio":        true,
	"ccx/internal/arith":       true,
	"ccx/internal/stats":       true,
	"ccx/internal/trace":       true,
	"ccx/internal/experiments": true,
}

// harnessPkgs are test harness: the seeded fault injector and the test
// helpers. Tests wrap connections in process; no daemon takes a flag that
// links either.
var harnessPkgs = map[string]bool{
	"ccx/internal/faultnet": true,
	"ccx/internal/testx":    true,
}

// TestDataPathDeps holds the line between the system and the rest: no
// data-path binary links a reproduction-only package or the test harness. A
// failure names the data-path package that pulled one in.
func TestDataPathDeps(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	args := append([]string{"list", "-deps", "-f", `{{.ImportPath}} {{join .Imports " "}}`}, dataPathCmds...)
	out, err := exec.Command(goTool, args...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		for _, imp := range fields[1:] {
			if reproductionPkgs[imp] || harnessPkgs[imp] {
				t.Errorf("%s imports %s", fields[0], imp)
			}
		}
	}
}
