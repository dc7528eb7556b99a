package metrics

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"beambench/internal/stats"
)

func TestSketchEmpty(t *testing.T) {
	s := MustSketch()
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("empty sketch Quantile = %v, want 0", got)
	}
	if s.Count() != 0 || s.Max() != 0 {
		t.Errorf("empty sketch Count/Max = %d/%v, want zeros", s.Count(), s.Max())
	}
}

func TestSketchSingleValue(t *testing.T) {
	s := MustSketch()
	s.Insert(42)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got := s.Quantile(q); got != 42 {
			t.Errorf("Quantile(%v) = %v, want 42", q, got)
		}
	}
	if s.Max() != 42 || s.Count() != 1 {
		t.Errorf("Max/Count = %v/%d", s.Max(), s.Count())
	}
}

func TestSketchExactMinMax(t *testing.T) {
	s := MustSketch()
	rng := rand.New(rand.NewPCG(1, 2))
	min, max := math.Inf(1), math.Inf(-1)
	for range 10_000 {
		v := rng.NormFloat64()
		s.Insert(v)
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	if s.Quantile(0) != min || s.Max() != max {
		t.Errorf("Quantile(0)/Max = %v/%v, want %v/%v", s.Quantile(0), s.Max(), min, max)
	}
}

// TestSketchExact feeds random, ascending, descending and heavy-tailed
// inputs in uneven batches, querying after every batch so each query
// after the first merges a freshly sorted batch into the sorted prefix.
// Every answer must equal the nearest-rank percentile of the
// observations so far, as internal/stats computes it independently.
func TestSketchExact(t *testing.T) {
	const n = 30_000
	rng := rand.New(rand.NewPCG(7, 11))
	inputs := map[string][]float64{}
	for _, name := range []string{"random", "ascending", "descending", "lognormal"} {
		xs := make([]float64, n)
		for i := range xs {
			switch name {
			case "random":
				xs[i] = rng.Float64() * 1e6
			case "ascending":
				xs[i] = float64(i)
			case "descending":
				xs[i] = float64(n - i)
			case "lognormal":
				xs[i] = math.Exp(rng.NormFloat64() * 2)
			}
		}
		inputs[name] = xs
	}
	for name, input := range inputs {
		t.Run(name, func(t *testing.T) {
			s := MustSketch()
			for lo, size := 0, 1; lo < n; lo, size = lo+size, size*7 {
				hi := min(lo+size, n)
				for _, v := range input[lo:hi] {
					s.Insert(v)
				}
				seen := input[:hi]
				for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
					want, err := stats.Percentile(seen, q)
					if err != nil {
						t.Fatal(err)
					}
					if got := s.Quantile(q); got != want {
						t.Fatalf("after %d values: Quantile(%v) = %v, want %v", hi, q, got, want)
					}
				}
				if got, want := s.Max(), slices.Max(seen); got != want {
					t.Fatalf("after %d values: Max = %v, want %v", hi, got, want)
				}
			}
		})
	}
}
