package main

import (
	"fmt"
	"math"
	"strings"

	"minup/internal/obs"
)

// counterDelta is a counter's growth between two snapshots.
func counterDelta(before, after obs.Snapshot, name string) float64 {
	return float64(after.Counters[name]) - float64(before.Counters[name])
}

// histMeanDelta is the mean of the observations a histogram received
// between two snapshots, summed over the named histograms, and their count.
func histMeanDelta(before, after obs.Snapshot, names ...string) (mean float64, n float64) {
	var sum float64
	for _, name := range names {
		sum += float64(after.Histograms[name].Sum) - float64(before.Histograms[name].Sum)
		n += float64(after.Histograms[name].Count) - float64(before.Histograms[name].Count)
	}
	if n == 0 {
		return math.NaN(), 0
	}
	return sum / n, n
}

// ratio is a/b, NaN when b is zero (reported as absent).
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// scaleAll returns xs, each multiplied by f.
func scaleAll(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// fmtFloats prints a list of measurements with four significant digits.
func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

// setupSeconds turns set-up wall times into setup_s values, one per group
// of size set-ups: the group's wall time per set-up, scaled by the share of
// the CPU time the guest asked for that the hypervisor gave it,
// busy/(busy+steal) over the group's set-up windows. On a host that
// steals nothing this is the plain wall time; on a shared host it takes
// out the stolen time, which swings between 5% and 55% of set-up here.
func setupSeconds(walls []float64, ticks []cpuTicks, size int) []float64 {
	var out []float64
	for g := 0; g+size <= len(walls); g += size {
		var wall float64
		var t cpuTicks
		for i := g; i < g+size; i++ {
			wall += walls[i]
			t.busy += ticks[i].busy
			t.steal += ticks[i].steal
		}
		out = append(out, wall*t.share()/float64(size))
	}
	return out
}
