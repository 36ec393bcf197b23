package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a percentile
// before the benchmark reports it: a percentile resting on fewer is noise.
const minTail = 10

// samples holds raw latency samples in microseconds, each with the
// one-second window of the timed phase in which it completed. Quantiles
// are exact order statistics of the recorded values, never bucket bounds.
type samples struct {
	v      []float64
	w      []int32 // window of each sample, kept paired with v through sorting
	sorted bool
}

// add adds a sample that completed in window w.
func (s *samples) add(us float64, w int) {
	s.v = append(s.v, us)
	s.w = append(s.w, int32(w))
	s.sorted = false
}

func (s *samples) merge(o *samples) {
	s.v = append(s.v, o.v...)
	s.w = append(s.w, o.w...)
	s.sorted = false
}

// Len, Less and Swap sort the samples by value, their windows with them.
func (s *samples) Len() int           { return len(s.v) }
func (s *samples) Less(i, j int) bool { return s.v[i] < s.v[j] }
func (s *samples) Swap(i, j int) {
	s.v[i], s.v[j] = s.v[j], s.v[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
}

// scaled returns a copy of the samples with each value multiplied by the
// share of its window (see cpuTicks.share). A window past the last share —
// a request that completed after the timed phase ended — takes the last
// share. Without shares the copy is unscaled.
func (s *samples) scaled(shares []float64) *samples {
	out := &samples{v: append([]float64(nil), s.v...), w: append([]int32(nil), s.w...)}
	if len(shares) == 0 {
		return out
	}
	for i, w := range s.w {
		out.v[i] *= shares[min(int(w), len(shares)-1)]
	}
	return out
}

func (s *samples) n() int { return len(s.v) }

// rank is the 1-based nearest-rank index of quantile q over n samples.
func rank(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// quantile returns the q-quantile (nearest rank) and whether at least
// minTail samples lie beyond it. A refused quantile must not be reported.
func (s *samples) quantile(q float64) (float64, bool) {
	n := len(s.v)
	if n == 0 || q < 0 || q > 1 {
		return 0, false
	}
	r := rank(q, n)
	if n-r < minTail {
		return 0, false
	}
	if !s.sorted {
		sort.Sort(s)
		s.sorted = true
	}
	return s.v[r-1], true
}

// tail returns the highest of the candidate percentiles that still has
// minTail samples beyond it, for the diagnostic tail column.
func (s *samples) tail() (q, v float64, ok bool) {
	for _, q := range []float64{0.9999, 0.999, 0.99, 0.9, 0.5} {
		if v, ok := s.quantile(q); ok {
			return q, v, true
		}
	}
	return 0, 0, false
}

// pct formats a quantile as a percentile label: 0.99 → "p99".
func pct(q float64) string {
	return "p" + trimFloat(q*100)
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%.4f", f)
	for s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}

// median returns the median of xs (the mean of the middle pair for an
// even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
