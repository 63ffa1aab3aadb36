package main

import (
	"math"
	"sort"
	"time"
)

// samples records exact durations. The benchmark keeps every sample and
// sorts on demand, so its percentiles carry no bucketing error and do not
// depend on the program's own histogram type.
// Each sample also keeps when it was taken, relative to its phase's
// start, so a phase can be split into sub-windows.
type samples struct {
	ns []int64
	at []int64
}

func (s *samples) add(d, at time.Duration) {
	s.ns = append(s.ns, int64(d))
	s.at = append(s.at, int64(at))
}

func (s *samples) merge(o *samples) {
	s.ns = append(s.ns, o.ns...)
	s.at = append(s.at, o.at...)
}

// mergeFrom appends o's samples taken at or after from, moving their
// times by shift - from.
func (s *samples) mergeFrom(o *samples, from, shift time.Duration) {
	for i, at := range o.at {
		if at >= int64(from) {
			s.ns = append(s.ns, o.ns[i])
			s.at = append(s.at, at-int64(from)+int64(shift))
		}
	}
}

func (s *samples) count() int { return len(s.ns) }

// quantile returns the q-quantile (0..1) by the nearest-rank rule, in
// milliseconds; 0 when there are no samples.
func (s *samples) quantileMS(q float64) float64 {
	if len(s.ns) == 0 {
		return 0
	}
	v := append([]int64(nil), s.ns...)
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return rankMS(v, q)
}

func rankMS(sorted []int64, q float64) float64 {
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(sorted[rank]) / 1e6
}

// tailSupport is how many samples must lie beyond a tail quantile for
// it to be reported.
const tailSupport = 10

// minSamples is the fewest samples whose q-quantile has tailSupport
// samples beyond it.
func minSamples(q float64) int { return int(math.Ceil(tailSupport / (1 - q))) }

// maxWindows caps how many sub-windows a phase is split into.
const maxWindows = 8

// windowedMS splits the phase [0, span) into k equal sub-windows, with k
// as large as lets every sub-window average minSamples(q) samples (at
// most maxWindows, at least 1), and returns the median over them of each
// sub-window's q-quantile, and the sub-windows' quantiles. One stall
// then moves one sub-window's tail, not the reported one.
func (s *samples) windowedMS(q float64, span time.Duration) (float64, []float64) {
	k := min(maxWindows, max(1, len(s.ns)/minSamples(q)))
	if k == 1 || span <= 0 {
		v := s.quantileMS(q)
		return v, []float64{v}
	}
	wins := make([][]int64, k)
	for i, at := range s.at {
		j := min(k-1, max(0, int(at*int64(k)/int64(span))))
		wins[j] = append(wins[j], s.ns[i])
	}
	var qs []float64
	for _, v := range wins {
		if len(v) == 0 {
			continue
		}
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		qs = append(qs, rankMS(v, q))
	}
	return median(qs), qs
}
