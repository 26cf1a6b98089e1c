package experiments

import (
	"math"
	"runtime"
	"sort"
)

// Paired A/B rounds: the one method every ratio bar in the suite is
// measured with.
//
// An experiment names its arms — arm 0 is the reference — and a segment
// function that runs one timed slice of one arm's workload and returns
// its figure (a rate or an elapsed time). pairedRounds warms every arm
// up once, then runs n rounds. A round runs each arm once, in forward
// order on even rounds and in reverse on odd ones, with a forced GC
// before every segment so that collection cycles left by earlier work
// stay out of the timed region. Each round yields one ratio per arm:
// its figure over arm 0's from the same round. Machine drift — other
// processes, the kernel writing back what earlier experiments left
// dirty — moves on a scale of seconds, so the arms of one round share
// it and their ratio cancels it. The median over rounds then discards
// rounds where a straggler hit one arm only, and the median absolute
// deviation of the round ratios is the run's own noise floor: two
// identical arms measured in this process differ by about that much.

// rounds holds the measured figures of a pairedRounds run.
type rounds struct {
	figs [][]float64 // figs[arm][round]
}

// pairedRounds runs n interleaved rounds over arms arms. seg runs one
// segment of an arm; warm is true for the untimed warm-up segment each
// arm runs first, whose figure is discarded.
func pairedRounds(n, arms int, seg func(arm int, warm bool) (float64, error)) (*rounds, error) {
	for a := 0; a < arms; a++ {
		runtime.GC()
		if _, err := seg(a, true); err != nil {
			return nil, err
		}
	}
	r := &rounds{figs: make([][]float64, arms)}
	for k := 0; k < n; k++ {
		for i := 0; i < arms; i++ {
			a := i
			if k%2 == 1 {
				a = arms - 1 - i
			}
			runtime.GC()
			f, err := seg(a, false)
			if err != nil {
				return nil, err
			}
			r.figs[a] = append(r.figs[a], f)
		}
	}
	return r, nil
}

// ratio returns the median over rounds of arm's figure divided by arm
// 0's from the same round, and the median absolute deviation of those
// round ratios (the noise floor).
func (r *rounds) ratio(arm int) (median, noise float64) {
	qs := make([]float64, len(r.figs[arm]))
	for k := range qs {
		qs[k] = r.figs[arm][k] / r.figs[0][k]
	}
	median = medianOf(qs)
	for k, q := range qs {
		qs[k] = math.Abs(q - median)
	}
	return median, medianOf(qs)
}

// median returns arm's median figure over the rounds.
func (r *rounds) median(arm int) float64 {
	return medianOf(append([]float64(nil), r.figs[arm]...))
}

// medianOf returns the median of xs, reordering xs.
func medianOf(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
