package main

import (
	"errors"
	"math"
	"testing"

	"beambench/internal/stats"
)

func TestGeomean(t *testing.T) {
	got, err := geomean([]float64{1, 10, 100})
	if err != nil || math.Abs(got-10) > 1e-9 {
		t.Fatalf("geomean(1,10,100) = %v, %v; want 10", got, err)
	}
	if _, err := geomean(nil); !errors.Is(err, stats.ErrEmpty) {
		t.Errorf("geomean(nil) error = %v, want ErrEmpty", err)
	}
	// A zero or missing cell time must fail, not pull the mean to zero.
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := geomean([]float64{5, bad}); !errors.Is(err, errNonPositive) {
			t.Errorf("geomean(5, %v) error = %v, want errNonPositive", bad, err)
		}
	}
}

func TestQuartiles(t *testing.T) {
	q1, q3, err := quartiles([]float64{4, 1, 3, 2, 5})
	if err != nil || q1 != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v, %v, %v; want 2, 4", q1, q3, err)
	}
	if m, err := median([]float64{3, 1, 2, 10}); err != nil || m != 2.5 {
		t.Fatalf("median = %v, %v; want 2.5", m, err)
	}
	if _, _, err := quartiles(nil); !errors.Is(err, stats.ErrEmpty) {
		t.Errorf("quartiles(nil) error = %v, want ErrEmpty", err)
	}
}
