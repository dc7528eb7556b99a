package main

import (
	"errors"
	"fmt"
	"math"

	"beambench/internal/stats"
)

// median and quartile interpolate between closest ranks and percentile
// is nearest-rank — internal/stats already defines both; only the
// geometric mean is new here.

func median(xs []float64) (float64, error) { return stats.Quantile(xs, 0.5) }

// quartiles returns the first and third quartile of xs.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	if q1, err = stats.Quantile(xs, 0.25); err != nil {
		return 0, 0, err
	}
	q3, err = stats.Quantile(xs, 0.75)
	return q1, q3, err
}

// errNonPositive marks a sample that cannot enter a geometric mean.
var errNonPositive = errors.New("non-positive or non-finite value")

// geomean returns the geometric mean of xs. A zero, negative, NaN or
// infinite element is an error, never a silent 0: a cell whose time is
// missing must fail its rep instead of dragging the mean towards zero.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, stats.ErrEmpty
	}
	var logSum float64
	for i, x := range xs {
		if !(x > 0) || math.IsInf(x, 0) {
			return 0, fmt.Errorf("geomean: element %d = %v: %w", i, x, errNonPositive)
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs))), nil
}
