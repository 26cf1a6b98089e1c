package main

import (
	"math"
	"sort"
	"sync"
	"syscall"
	"time"

	"ode/internal/obs"
)

// samples is a latency series in microseconds. A samples value owned
// by one goroutine needs no lock; shared series use syncSamples.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e3) }

// quantile returns the q-quantile of s by linear interpolation between
// order statistics, and the sample count. It sorts s in place.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// iqm returns the interquartile mean of s: the mean of its middle half.
// Like a median it ignores the windows a burst of outside load hits;
// unlike a median it does not flip between two values when a run's
// windows split between a fast and a slow phase of a shared host, but
// reads between them. It sorts s in place.
func (s samples) iqm() float64 {
	if len(s) == 0 {
		return 0
	}
	sort.Float64s(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// syncSamples is a samples series written from many goroutines: the
// storage and WAL decorators see calls from every committer and server
// session.
type syncSamples struct {
	mu sync.Mutex
	s  samples
}

func (s *syncSamples) add(d time.Duration) {
	s.mu.Lock()
	s.s.add(d)
	s.mu.Unlock()
}

func (s *syncSamples) take() samples {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.s
	s.s = nil
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// regSnap is one registry snapshot indexed by metric name.
type regSnap map[string]obs.MetricValue

func snapOf(r *obs.Registry) regSnap {
	out := regSnap{}
	for _, mv := range r.Snapshot() {
		out[mv.Name] = mv
	}
	return out
}

// regDelta accumulates the change of one or more registries across the
// traced slices of a run: counter deltas and per-bucket histogram
// deltas, so that quantiles cover only the traced work.
type regDelta struct {
	counters map[string]float64
	hists    map[string]map[uint64]uint64 // name -> bucket lo -> count
}

func newRegDelta() *regDelta {
	return &regDelta{counters: map[string]float64{}, hists: map[string]map[uint64]uint64{}}
}

// add folds after−before into d.
func (d *regDelta) add(before, after regSnap) {
	for name, a := range after {
		b := before[name]
		if a.Kind == obs.KindHistogram {
			h := d.hists[name]
			if h == nil {
				h = map[uint64]uint64{}
				d.hists[name] = h
			}
			prev := map[uint64]uint64{}
			for _, bk := range b.Buckets {
				prev[bk.Lo] = bk.Count
			}
			for _, bk := range a.Buckets {
				h[bk.Lo] += bk.Count - prev[bk.Lo]
			}
			continue
		}
		d.counters[name] += float64(a.Value) - float64(b.Value)
	}
}

func (d *regDelta) c(name string) float64 { return d.counters[name] }

// quantile estimates the q-quantile of a histogram's delta by linear
// interpolation inside the containing log₂ bucket [lo, 2·lo).
func (d *regDelta) quantile(name string, q float64) float64 {
	h := d.hists[name]
	var total uint64
	los := make([]uint64, 0, len(h))
	for lo, n := range h {
		if n > 0 {
			los = append(los, lo)
			total += n
		}
	}
	if total == 0 {
		return 0
	}
	sort.Slice(los, func(i, j int) bool { return los[i] < los[j] })
	rank := q * float64(total)
	var seen float64
	for _, lo := range los {
		n := float64(h[lo])
		if seen+n >= rank {
			width := float64(lo)
			if lo == 0 {
				width = 1
			}
			return float64(lo) + width*(rank-seen)/n
		}
		seen += n
	}
	return float64(los[len(los)-1])
}

// ratio returns a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
