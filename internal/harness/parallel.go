package harness

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"beambench/internal/queries"
)

// DefaultWorkers is the worker count used for automatic sizing: one
// worker per available CPU. The modeled latencies are waits that hold
// no core, so concurrent cells leave each other's charged spans alone;
// only their real Go compute contends, which moves cells whose span is
// a few milliseconds of compute. Use one worker for those.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// MatrixSetups enumerates the benchmark cells of the given queries in
// canonical report order — query, then system, API, parallelism — the
// exact order the sequential path visits them in. The parallel scheduler
// aggregates results by this order, not by completion order, so reports
// are identically ordered at any worker count.
func (r *Runner) MatrixSetups(qs []queries.Query) []Setup {
	out := make([]Setup, 0, len(qs)*len(Systems())*len(APIs())*len(r.cfg.Parallelisms))
	for _, q := range qs {
		for _, sys := range Systems() {
			for _, api := range APIs() {
				for _, p := range r.cfg.Parallelisms {
					out = append(out, Setup{System: sys, API: api, Query: q, Parallelism: p})
				}
			}
		}
	}
	return out
}

// RunAllParallel runs every query's matrix across a pool of workers and
// aggregates the report; see RunMatrix for the scheduling contract.
func (r *Runner) RunAllParallel(ctx context.Context, workers int) (*Report, error) {
	return r.RunMatrix(ctx, queries.All(), workers)
}

// RunMatrix executes the benchmark cells of the given queries across a
// pool of workers. Each cell still builds a fresh broker and engine
// cluster per run (the paper's per-run isolation), which makes the
// matrix embarrassingly parallel; workers <= 0 falls back to
// Config.Workers, and to one worker when that is unset too.
//
// The report is aggregated in canonical cell order regardless of
// completion order. On failure or cancellation the first error (in cell
// order, not completion order) is returned together with the report
// built from every run that did complete — partial results are never
// discarded.
func (r *Runner) RunMatrix(ctx context.Context, qs []queries.Query, workers int) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	setups := r.MatrixSetups(qs)
	r.expectCells(setups)
	if workers <= 0 {
		workers = r.cfg.Workers
	}
	if workers <= 0 {
		workers = 1
	}
	if workers > len(setups) {
		workers = len(setups)
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type job struct {
		idx   int
		setup Setup
	}
	jobs := make(chan job)
	cells := make([][]RunResult, len(setups))
	errs := make([]error, len(setups))

	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				cell, err := r.runCell(ctx, j.setup)
				cells[j.idx] = cell
				errs[j.idx] = err
				if err != nil {
					// First-error propagation: stop dispatching new
					// cells; in-flight cells drain at their next
					// between-run cancellation check.
					cancel()
				}
			}
		}()
	}
dispatch:
	for i, s := range setups {
		select {
		case jobs <- job{idx: i, setup: s}:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()

	// The first real error in cell order wins, making the returned error
	// deterministic under concurrency. Cancellation errors caused by our
	// own first-error cancel are secondary; a canceled parent context is
	// reported when nothing else failed.
	var firstErr error
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			firstErr = err
			break
		}
	}
	if firstErr == nil && parent.Err() != nil {
		firstErr = parent.Err()
	}
	if firstErr == nil {
		for _, err := range errs {
			if err != nil {
				firstErr = err
				break
			}
		}
	}

	var all []RunResult
	for _, cell := range cells {
		all = append(all, cell...)
	}
	rep, err := BuildReport(r.cfg, all)
	if err != nil {
		return nil, err
	}
	rep.Host.Workers = workers
	rep.AttachMetrics(r.metrics)
	return rep, firstErr
}
