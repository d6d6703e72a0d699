package main

import (
	"math"
	"testing"
)

func TestQuantileRefusesThinTail(t *testing.T) {
	s := make([]float64, 999)
	for i := range s {
		s[i] = float64(i)
	}
	// p99 of 999 samples leaves 9 beyond it: refused.
	if _, err := quantile(s, 0.99); err == nil {
		t.Fatal("p99 over 999 samples was not refused")
	}
	s = append(s, 999)
	v, err := quantile(s, 0.99)
	if err != nil {
		t.Fatalf("p99 over 1000 samples refused: %v", err)
	}
	if v != 989 {
		t.Fatalf("p99 = %g, want 989 (ten samples beyond it)", v)
	}
	if v, err := quantile(s[:3], 0.5); err != nil || v != 1 {
		t.Fatalf("median of three = %g, %v", v, err)
	}
	// p90 of exactly 100 samples has exactly ten beyond it.
	if v, err := quantile(s[:100], 0.9); err != nil || v != 89 {
		t.Fatalf("p90 of 100 = %g, %v; want 89", v, err)
	}
}

func TestQuantileCountsFailuresAsSlow(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = 1
	}
	for i := 0; i < 60; i++ {
		s[i] = math.Inf(1)
	}
	if v, _ := quantile(s, 0.5); !math.IsInf(v, 1) {
		t.Fatalf("median with 60%% failed = %g, want +Inf", v)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles of three = %g %g %g, want 1 2 4", q1, q2, q3)
	}
}
