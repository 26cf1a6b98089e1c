package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// freshAt loads the repository's BENCH.json and returns it with a fresh
// run in which every committed ratio is scaled by f.
func freshAt(t *testing.T, f float64) (map[string]section, map[string]map[string]float64) {
	t.Helper()
	raw, err := os.ReadFile("../../BENCH.json")
	if err != nil {
		t.Fatal(err)
	}
	var b map[string]section
	if err := json.Unmarshal(raw, &b); err != nil || len(b) == 0 {
		t.Fatalf("BENCH.json: %v (%d sections)", err, len(b))
	}
	fresh := map[string]map[string]float64{}
	for _, sec := range b {
		fresh[sec.Experiment] = map[string]float64{}
		for k, v := range sec.Ratios {
			fresh[sec.Experiment][k] = v * f
		}
	}
	return b, fresh
}

func TestDiffPassesAtEquality(t *testing.T) {
	b, fresh := freshAt(t, 1)
	checked, ok := diff(io.Discard, b, fresh)
	want := 0
	for _, sec := range b {
		want += len(sec.Ratios)
	}
	if !ok || checked != want {
		t.Fatalf("equal run: ok %v, checked %d of %d ratios", ok, checked, want)
	}
}

func TestDiffFailsBelowThreshold(t *testing.T) {
	b, fresh := freshAt(t, 1)
	for name, sec := range b {
		for key, want := range sec.Ratios {
			got := fresh[sec.Experiment]
			got[key] = want * sec.Threshold * 0.99
			if _, ok := diff(io.Discard, b, fresh); ok {
				t.Errorf("%s %s below threshold x committed passed", name, key)
			}
			got[key] = want * sec.Threshold
			if _, ok := diff(io.Discard, b, fresh); !ok {
				t.Errorf("%s %s exactly at threshold x committed failed", name, key)
			}
			got[key] = want
		}
	}
}

func TestDiffGatesOnlyExperimentsThatRan(t *testing.T) {
	b, fresh := freshAt(t, 1)
	wire := b["wire"].Experiment
	one := map[string]map[string]float64{wire: fresh[wire]}
	if checked, ok := diff(io.Discard, b, one); !ok || checked != len(b["wire"].Ratios) {
		t.Fatalf("one-experiment run: ok %v, checked %d", ok, checked)
	}
	delete(one[wire], "ratio/rtt1ms/binary")
	if _, ok := diff(io.Discard, b, one); ok {
		t.Fatal("a run of a gated experiment missing a ratio key passed")
	}
}
