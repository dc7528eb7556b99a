package metrics

import (
	"math"
	"slices"
)

// Sketch holds every observation of a bounded stream and answers exact
// nearest-rank quantiles, so the answer depends on the multiset of
// observations alone, never on the order they arrived in. Insert is an
// append; the values are sorted on the first query after a change, and
// only the part added since the last sort is sorted and merged. It is
// not safe for concurrent use; Collector serializes access for
// producers.
type Sketch struct {
	vals   []float64
	sorted int // vals[:sorted] is in ascending order
}

// MustSketch returns an empty sketch.
func MustSketch() *Sketch { return &Sketch{} }

// Insert adds one observation.
func (s *Sketch) Insert(v float64) { s.vals = append(s.vals, v) }

// Count reports the number of observations inserted.
func (s *Sketch) Count() int64 { return int64(len(s.vals)) }

// Max returns the largest observation (0 when empty).
func (s *Sketch) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.sort()
	return s.vals[len(s.vals)-1]
}

// Quantile returns the q-quantile (0 <= q <= 1) by the nearest-rank
// definition of stats.Percentile: the element of rank ceil(q*n).
// Returns 0 on an empty sketch.
func (s *Sketch) Quantile(q float64) float64 {
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	s.sort()
	rank := min(max(int(math.Ceil(q*float64(n))), 1), n)
	return s.vals[rank-1]
}

// sort brings vals into ascending order: it sorts the values inserted
// since the last call and merges them into the sorted prefix from the
// back, so a query after one more batch costs that batch's sort plus a
// linear merge, not a sort of everything held.
func (s *Sketch) sort() {
	k := s.sorted
	if k == len(s.vals) {
		return
	}
	slices.Sort(s.vals[k:])
	if k > 0 && s.vals[k] < s.vals[k-1] {
		tail := slices.Clone(s.vals[k:])
		i, j := k-1, len(tail)-1
		for w := len(s.vals) - 1; j >= 0; w-- {
			if i >= 0 && s.vals[i] > tail[j] {
				s.vals[w] = s.vals[i]
				i--
			} else {
				s.vals[w] = tail[j]
				j--
			}
		}
	}
	s.sorted = len(s.vals)
}

// summary reports the sketch as a LatencySummary.
func (s *Sketch) summary() LatencySummary {
	return LatencySummary{
		Count: s.Count(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
		Max:   s.Max(),
	}
}
