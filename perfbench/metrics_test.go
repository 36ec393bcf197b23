package main

import (
	"math"
	"testing"
)

func TestSetupSecondsScalesOutSteal(t *testing.T) {
	walls := []float64{1, 3, 2, 2}
	ticks := []cpuTicks{{busy: 100, steal: 0}, {busy: 100, steal: 100}, {busy: 50, steal: 50}, {busy: 150, steal: 50}}
	// Groups of one: each wall time times busy/(busy+steal).
	got := setupSeconds(walls, ticks, 1)
	want := []float64{1, 1.5, 1, 1.5}
	if len(got) != len(want) {
		t.Fatalf("got %d groups, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("group %d: got %g, want %g", i, got[i], want[i])
		}
	}
	// Groups of two pool their ticks and report wall time per set-up; a
	// trailing partial group is dropped.
	got = setupSeconds(walls[:3], ticks[:3], 2)
	if len(got) != 1 || math.Abs(got[0]-4*(200.0/300)/2) > 1e-12 {
		t.Errorf("groups of two: got %v, want [1.333…]", got)
	}
	// No ticks at all (no /proc/stat): the plain wall time.
	if got := setupSeconds([]float64{0.25}, []cpuTicks{{}}, 1); got[0] != 0.25 {
		t.Errorf("without ticks: got %v, want [0.25]", got)
	}
}

func TestHostSpeed(t *testing.T) {
	if got := hostSpeed(nil); got != 1 {
		t.Errorf("hostSpeed(nil) = %v, want 1", got)
	}
	// The median time, not the mean: one slow run must not move it.
	if got, want := hostSpeed([]float64{0.5, 2 * refNominal, 4 * refNominal}), 0.25; math.Abs(got-want) > 1e-12 {
		t.Errorf("hostSpeed = %v, want %v", got, want)
	}
	times := newRefState().calibrate()
	if len(times) != refReps {
		t.Fatalf("calibrate returned %d times, want %d", len(times), refReps)
	}
	for _, x := range times {
		if !(x > 0) {
			t.Fatalf("calibration times %v: want all positive", times)
		}
	}
}
