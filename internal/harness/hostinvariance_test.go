package harness

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"

	"beambench/internal/queries"
	"beambench/internal/stats"
)

// TestHostInvariance pins that a Beam cell's span is set by its
// modelled charges, not by the host: Flink-Beam and Apex-Beam Identity
// at P1 must read the same span with GOMAXPROCS 1 and 2, and alone or
// beside a concurrent copy of the same cell. Charges are realized as
// waits that hold no core, so the spans agree; were they realized on a
// core, each task would queue for the host's cores and the spans would
// grow with the tasks per core (about 2x from GOMAXPROCS 2 to 1).
//
// The conditions are interleaved round by round and each is read as its
// median, so background load that comes and goes during the test lands
// on all of them alike.
func TestHostInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping timing-sensitive host-invariance check in -short mode")
	}
	const (
		records = 4000
		rounds  = 5
		// bound is the largest spread allowed between the conditions'
		// median spans, as a fraction of the smallest. On a 2-vCPU host
		// the spread reads about 2% on its own and up to 11% while other
		// test packages run beside it; charges realized as busy-waits
		// read 38% (Apex) and 98% (Flink).
		bound = 0.20
	)
	r, err := New(Config{
		Records:      records,
		Runs:         1,
		Parallelisms: []int{1},
		DisableNoise: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	type condition struct {
		name       string
		gomaxprocs int
		concurrent int
	}
	conds := []condition{
		{"GOMAXPROCS=2 alone", 2, 1},
		{"GOMAXPROCS=1 alone", 1, 1},
		{"GOMAXPROCS=2 two cells", 2, 2},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	for _, sys := range []System{SystemFlink, SystemApex} {
		setup := Setup{System: sys, API: APIBeam, Query: queries.Identity, Parallelism: 1}
		spans := make([][]float64, len(conds)) // seconds
		for range rounds {
			for i, c := range conds {
				runtime.GOMAXPROCS(c.gomaxprocs)
				got, err := runConcurrently(r, setup, c.concurrent)
				if err != nil {
					t.Fatalf("%s %s: %v", setup.Label(), c.name, err)
				}
				spans[i] = append(spans[i], got...)
			}
		}
		medians := make([]float64, len(conds))
		for i, c := range conds {
			var err error
			if medians[i], err = stats.Quantile(spans[i], 0.5); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s Identity, %s: median %.4fs of %.4f", setup.Label(), c.name, medians[i], spans[i])
		}
		lo, hi := slices.Min(medians), slices.Max(medians)
		if spread := (hi - lo) / lo; spread > bound {
			t.Errorf("%s Identity: median spans %.4fs (in the order logged above) spread %.0f%%, want <= %.0f%%",
				setup.Label(), medians, 100*spread, 100*bound)
		}
	}
}

// runConcurrently runs n copies of one setup's single run at once and
// returns their execution times in seconds.
func runConcurrently(r *Runner, setup Setup, n int) ([]float64, error) {
	out := make([]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := r.RunSingle(setup, 0)
			out[i], errs[i] = res.ExecutionTime.Seconds(), err
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}
