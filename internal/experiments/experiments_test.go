package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestAllExperimentsPassQuick runs the whole suite in quick mode: every
// experiment must reproduce the paper's predicted shape. This is the
// repository's end-to-end reproduction gate.
func TestAllExperimentsPassQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("performance bars are not meaningful under the race detector; per-package -race tests cover the same code")
	}
	var buf bytes.Buffer
	r := &Runner{W: &buf, Cfg: Config{Quick: true, Dir: t.TempDir()}}
	results := r.RunAll()
	if len(results) != len(suite) {
		t.Fatalf("ran %d experiments, want %d", len(results), len(suite))
	}
	for _, res := range results {
		if !res.Passed {
			t.Errorf("%s (%s) failed: %s", res.ID, res.Title, res.Summary)
		}
	}
	if t.Failed() {
		t.Logf("full output:\n%s", buf.String())
	}
	// The output must contain one table header per experiment.
	for _, id := range []string{"E1", "E5", "E10", "E15", "E16", "E17", "E19", "E20", "E21", "E23", "E24", "E25"} {
		if !strings.Contains(buf.String(), "== "+id+":") {
			t.Errorf("output missing %s section", id)
		}
	}
}
