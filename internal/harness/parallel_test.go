package harness

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"beambench/internal/queries"
)

// matrixCellCount is the full matrix size with two parallelisms:
// 7 queries x 3 systems x 2 APIs x 2 parallelisms.
const matrixCellCount = 84

func TestMatrixSetupsCanonicalOrder(t *testing.T) {
	r, err := New(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	setups := r.MatrixSetups(queries.All())
	if len(setups) != matrixCellCount {
		t.Fatalf("len(setups) = %d, want %d", len(setups), matrixCellCount)
	}
	want := Setup{System: SystemApex, API: APIBeam, Query: queries.Identity, Parallelism: 1}
	if setups[0] != want {
		t.Errorf("setups[0] = %+v, want %+v", setups[0], want)
	}
	// The sequential path iterates parallelism innermost: cell 1 is the
	// same setup at parallelism 2.
	want.Parallelism = 2
	if setups[1] != want {
		t.Errorf("setups[1] = %+v, want %+v", setups[1], want)
	}
}

// TestRunAllParallelMatchesSequentialOrdering is the tentpole contract:
// the parallel scheduler aggregates by canonical cell order, so the
// report's cell sequence is identical to the sequential path's at any
// worker count.
func TestRunAllParallelMatchesSequentialOrdering(t *testing.T) {
	cfg := fastConfig()
	cfg.Records = 200
	cfg.Runs = 1

	seqR, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := seqR.RunAll()
	if err != nil {
		t.Fatal(err)
	}

	parR, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := parR.RunAllParallel(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}

	if len(seq.Cells) != matrixCellCount || len(par.Cells) != len(seq.Cells) {
		t.Fatalf("cell counts: sequential %d, parallel %d, want %d",
			len(seq.Cells), len(par.Cells), matrixCellCount)
	}
	for i := range seq.Cells {
		if seq.Cells[i].Setup != par.Cells[i].Setup {
			t.Errorf("cell %d: sequential %s %s vs parallel %s %s",
				i, seq.Cells[i].Setup.Label(), seq.Cells[i].Setup.Query,
				par.Cells[i].Setup.Label(), par.Cells[i].Setup.Query)
		}
		if len(seq.Cells[i].TimesSec) != len(par.Cells[i].TimesSec) {
			t.Errorf("cell %d: run counts differ: %d vs %d",
				i, len(seq.Cells[i].TimesSec), len(par.Cells[i].TimesSec))
		}
	}
	// Each report records the worker count it actually ran with.
	if seq.Host.Workers != 1 || par.Host.Workers != 4 {
		t.Errorf("host workers: sequential %d, parallel %d, want 1 and 4", seq.Host.Workers, par.Host.Workers)
	}
	if want := currentHost(4); par.Host != want {
		t.Errorf("parallel host = %v, want %v", par.Host, want)
	}
}

// TestRunAllUsesConfiguredWorkers checks the Config.Workers wiring: a
// plain RunAll with Workers > 1 produces the complete matrix.
func TestRunAllUsesConfiguredWorkers(t *testing.T) {
	cfg := fastConfig()
	cfg.Records = 200
	cfg.Runs = 1
	cfg.Workers = 4
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != matrixCellCount {
		t.Errorf("cells = %d, want %d", len(rep.Cells), matrixCellCount)
	}
}

// TestRunMatrixDefaultsToConfigWorkers checks that a non-positive
// workers argument falls back to Config.Workers.
func TestRunMatrixDefaultsToConfigWorkers(t *testing.T) {
	cfg := fastConfig()
	cfg.Records = 200
	cfg.Runs = 1
	cfg.Workers = 4
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.RunMatrix(context.Background(), []queries.Query{queries.Grep}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 12 {
		t.Errorf("cells = %d, want 12", len(rep.Cells))
	}
}

func TestNegativeWorkersRejected(t *testing.T) {
	cfg := fastConfig()
	cfg.Workers = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative worker count accepted")
	}
}

// TestRunMatrixPreservesPartialResultsOnError forces a mid-matrix
// failure (a parallelism far beyond any simulated cluster's capacity)
// and checks that both the sequential and the parallel paths return the
// completed cells alongside the error instead of discarding them.
//
// The impossible cell sits at index workers in canonical order. The
// jobs channel is unbuffered and a worker stores its cell before it
// takes the next job, so the impossible cell is handed out only after
// some cell has completed. At a lower index it would be dispatched in
// the first wave, and its instant failure could cancel every in-flight
// cell before any of them finished.
func TestRunMatrixPreservesPartialResultsOnError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := fastConfig()
		cfg.Records = 200
		cfg.Runs = 1
		cfg.Parallelisms = nil
		for p := 1; p <= workers; p++ {
			cfg.Parallelisms = append(cfg.Parallelisms, p)
		}
		cfg.Parallelisms = append(cfg.Parallelisms, 1<<20)
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.RunMatrix(context.Background(), queries.All(), workers)
		if err == nil {
			t.Fatalf("workers=%d: oversized parallelism succeeded", workers)
		}
		if rep == nil {
			t.Fatalf("workers=%d: partial report discarded on error", workers)
		}
		if len(rep.Cells) == 0 {
			t.Errorf("workers=%d: no completed cells preserved", workers)
		}
		for _, c := range rep.Cells {
			if c.Setup.Parallelism == 1<<20 && len(c.TimesSec) > 0 {
				t.Errorf("workers=%d: impossible cell %s reported results", workers, c.Setup.Label())
			}
		}
	}
}

// TestRunAllPreservesPartialResultsOnError covers the sequential RunAll
// contract directly: partial report plus error, matching RunCell and
// RunQuery behavior.
func TestRunAllPreservesPartialResultsOnError(t *testing.T) {
	cfg := fastConfig()
	cfg.Records = 200
	cfg.Runs = 1
	cfg.Parallelisms = []int{1, 1 << 20}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.RunAll()
	if err == nil {
		t.Fatal("oversized parallelism succeeded")
	}
	if rep == nil || len(rep.Cells) == 0 {
		t.Fatalf("partial report lost: %+v", rep)
	}
}

// TestRunMatrixCancellation cancels mid-matrix and expects a prompt
// return carrying the completed cells and the context error.
func TestRunMatrixCancellation(t *testing.T) {
	cfg := fastConfig()
	cfg.Records = 200
	cfg.Runs = 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cells atomic.Int32
	cfg.Progress = func(string) {
		if cells.Add(1) == 3 {
			cancel()
		}
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.RunMatrix(ctx, queries.All(), 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || len(rep.Cells) < 3 {
		t.Fatalf("completed cells lost on cancellation: %+v", rep)
	}
	if len(rep.Cells) == matrixCellCount {
		t.Error("cancellation did not stop the matrix")
	}
}

// TestRunMatrixProgressSerialized runs with several workers and a
// Progress callback mutating unsynchronized state; the runner must
// serialize callbacks (verified under -race) and deliver exactly one
// line per cell.
func TestRunMatrixProgressSerialized(t *testing.T) {
	cfg := fastConfig()
	cfg.Records = 200
	cfg.Runs = 1
	var lines []string
	cfg.Progress = func(msg string) { lines = append(lines, msg) }
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunMatrix(context.Background(), queries.All(), 4); err != nil {
		t.Fatal(err)
	}
	if len(lines) != matrixCellCount {
		t.Errorf("progress lines = %d, want %d", len(lines), matrixCellCount)
	}
}
