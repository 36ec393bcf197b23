package main

import (
	"sort"
	"testing"
)

func fill(n int) *samples {
	s := &samples{}
	for i := n; i >= 1; i-- { // reversed, so quantile must sort
		s.add(float64(i), 0)
	}
	return s
}

func TestQuantileExactNearestRank(t *testing.T) {
	s := fill(1000)
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}, {0.001, 1}} {
		got, ok := s.quantile(tc.q)
		if !ok || got != tc.want {
			t.Errorf("quantile(%v) = %v, %v; want %v, true", tc.q, got, ok, tc.want)
		}
	}
}

func TestQuantileResolvesSmallMoves(t *testing.T) {
	// A 10% move at ~100µs must show; a 1/5/10 bucket grid would report
	// 500 for both.
	a, b := &samples{}, &samples{}
	for i := 0; i < 200; i++ {
		a.add(100+float64(i%7), 0)
		b.add(110+float64(i%7), 0)
	}
	qa, _ := a.quantile(0.5)
	qb, _ := b.quantile(0.5)
	if qb-qa != 10 {
		t.Fatalf("p50 %v vs %v: want a difference of exactly 10", qa, qb)
	}
}

func TestQuantileRefusesThinTail(t *testing.T) {
	s := fill(100)
	if _, ok := s.quantile(0.9); !ok {
		t.Fatal("p90 of 100 samples has exactly 10 beyond it and must be reported")
	}
	if _, ok := s.quantile(0.91); ok {
		t.Fatal("p91 of 100 samples has 9 beyond it and must be refused")
	}
	if _, ok := s.quantile(0.99); ok {
		t.Fatal("p99 of 100 samples must be refused")
	}
	if _, ok := (&samples{}).quantile(0.5); ok {
		t.Fatal("a quantile of no samples must be refused")
	}
	if _, ok := fill(10).quantile(0.5); ok {
		t.Fatal("p50 of 10 samples has 5 beyond it and must be refused")
	}
}

func TestTailPicksHighestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantQ float64
	}{{20, 0.5}, {100, 0.9}, {1000, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		q, _, ok := fill(tc.n).tail()
		if !ok || q != tc.wantQ {
			t.Errorf("n=%d: tail percentile %v, %v; want %v", tc.n, q, ok, tc.wantQ)
		}
	}
	if _, _, ok := fill(5).tail(); ok {
		t.Error("5 samples support no percentile")
	}
}

func TestMergeAndMedian(t *testing.T) {
	a, b := fill(60), fill(60)
	a.merge(b)
	if a.n() != 120 {
		t.Fatalf("merged n = %d, want 120", a.n())
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if pct(0.999) != "p99.9" || pct(0.5) != "p50" {
		t.Errorf("pct labels: %s %s", pct(0.999), pct(0.5))
	}
}

func TestScaledKeepsWindowsThroughSort(t *testing.T) {
	s := &samples{}
	s.add(100, 0)
	s.add(10, 1)
	s.add(50, 2) // completed after the last whole window
	// Sorting for a quantile must move each window with its value.
	sort.Sort(s)
	if s.v[0] != 10 || s.w[0] != 1 || s.v[2] != 100 || s.w[2] != 0 {
		t.Fatalf("sorted %v windows %v: want [10 50 100] with [1 2 0]", s.v, s.w)
	}
	got := s.scaled([]float64{0.5, 1})
	sort.Sort(got)
	want := []float64{10, 50, 50} // 10×1, 100×0.5, 50×(last share 1)
	for i := range want {
		if got.v[i] != want[i] {
			t.Fatalf("scaled = %v, want %v", got.v, want)
		}
	}
	// Without shares the copy is unscaled and the original untouched.
	if c := s.scaled(nil); len(c.v) != 3 || &c.v[0] == &s.v[0] {
		t.Fatalf("scaled(nil) = %v: want a 3-sample copy", c.v)
	}
}
