package experiments

import (
	"math"
	"testing"
)

// replay runs pairedRounds over two arms whose segments return the given
// per-round figures, and checks that arm order alternates by round.
func replay(t *testing.T, a, b []float64) *rounds {
	t.Helper()
	figs := [][]float64{a, b}
	var order []int
	rs, err := pairedRounds(len(a), 2, func(arm int, warm bool) (float64, error) {
		if warm {
			return 1e9, nil // discarded
		}
		order = append(order, arm)
		return figs[arm][(len(order)-1)/2], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < len(a); k++ {
		if first := order[2*k]; first != k%2 {
			t.Fatalf("round %d started with arm %d", k, first)
		}
	}
	return rs
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPairedRoundsTenPercentSlower(t *testing.T) {
	a, b := make([]float64, 9), make([]float64, 9)
	for k := range a {
		a[k] = 1 + 0.05*float64(k) // drift moves both arms of a round
		b[k] = a[k] * 1.10
	}
	median, noise := replay(t, a, b).ratio(1)
	if !near(median, 1.10) || !near(noise, 0) {
		t.Fatalf("median %.6f noise %.6f, want 1.10 and 0", median, noise)
	}
}

func TestPairedRoundsStragglerRound(t *testing.T) {
	// Round ratios jitter by ±1% around 1.10; round 4's arm-1 segment
	// hits a 5x straggler.
	jitter := []float64{1.10, 1.11, 1.09, 1.10, 1.10, 1.11, 1.09, 1.10, 1.10}
	a, b := make([]float64, len(jitter)), make([]float64, len(jitter))
	for k, q := range jitter {
		a[k], b[k] = 2, 2*q
	}
	b[4] *= 5
	rs := replay(t, a, b)
	median, noise := rs.ratio(1)
	if !near(median, 1.10) || noise > 0.011 {
		t.Fatalf("one straggler moved median to %.4f or noise floor to %.4f", median, noise)
	}
	if m := rs.median(1); !near(m, 2.2) {
		t.Fatalf("median arm-1 figure %.6f, want 2.2", m)
	}
}
