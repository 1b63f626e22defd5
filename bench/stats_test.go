package main

import (
	"math"
	"testing"
)

func TestHighestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{39, 0, false},   // p75 of 39 leaves 9 beyond
		{40, 0.75, true}, // ...of 40 leaves exactly 10
		{99, 0.75, true},
		{100, 0.90, true},
		{199, 0.90, true},
		{200, 0.95, true},
		{999, 0.95, true},
		{1000, 0.99, true},
		{1500, 0.99, true},
	} {
		p, ok := highestTail(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("highestTail(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.want, tc.ok)
		}
		if ok {
			if beyond := tc.n - int(math.Ceil(p*float64(tc.n))); beyond < 10 {
				t.Errorf("highestTail(%d) = %v leaves only %d samples beyond", tc.n, p, beyond)
			}
		}
	}
}

func TestP99NeedsAThousandSamples(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := p99(xs); ok {
		t.Error("p99 of 999 samples reported, with only 9 samples beyond it")
	}
	if v, ok := p99(append(xs, 999)); !ok || v != 989 {
		t.Errorf("p99 of 0..999 = %v, %v; want 989, true", v, ok)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.99: 10, 0.01: 1} {
		if got := percentile(asc, p); got != want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The acceptance check computes spreads with Python's
// statistics.quantiles(values, n=4); these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1.5, 2.5})
	if q1 != 1.25 || q3 != 2.75 {
		t.Errorf("quartiles(1.5, 2.5) = %v, %v; Python gives 1.25, 2.75", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "x_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "x_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shifted := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, x := range steady {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 70, 130, 100, 65, 135, 100, 100}
	for _, tc := range []struct {
		m    metricSpec
		a, b []float64
		want string
	}{
		{lower, steady, shifted(1.05), "ok"},
		{lower, steady, shifted(1.20), "regressed"},
		{lower, steady, shifted(0.80), "ok"}, // better is never a regression
		{higher, steady, shifted(0.80), "regressed"},
		{higher, steady, shifted(1.20), "ok"},
		{lower, steady, noisy, "unresolved"},
	} {
		if _, _, _, _, got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, median %v vs %v) = %s, want %s", tc.m.Better, median(tc.a), median(tc.b), got, tc.want)
		}
	}
}
