package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"beambench/internal/harness"
)

func goodCell() cellRun {
	return cellRun{
		Key: "Flink P1 Identity", System: "Flink", API: harness.APINative, Query: "Identity", Records: 100,
		ExecNS: 1e6, WallNS: 2e6, P50Sec: 0.001, P99Sec: 0.002, LatencyObs: 100, Output: 100, Expected: 100,
		CPUNS: 1e6, Mallocs: 300, AllocBytes: 4096, Speed: 1,
	}
}

func TestCellFailure(t *testing.T) {
	cases := []struct {
		name string
		edit func(*cellRun)
		want string // substring of the reason; "" passes
	}{
		{"good", func(*cellRun) {}, ""},
		{"error", func(c *cellRun) { c.Err = "boom" }, "error: boom"},
		{"skipped", func(c *cellRun) { c.Skipped = true }, "skipped"},
		{"short output", func(c *cellRun) { c.Output = 99 }, "output 99 records, reference 100"},
		{"zero time", func(c *cellRun) { c.ExecNS = 0 }, "zero execution time"},
		{"unpaired latencies", func(c *cellRun) { c.LatencyObs = 98 }, "98 latency observations"},
	}
	for _, tc := range cases {
		c := goodCell()
		tc.edit(&c)
		got := c.failure()
		if (tc.want == "") != (got == "") || !strings.Contains(got, tc.want) {
			t.Errorf("%s: failure() = %q, want it to contain %q", tc.name, got, tc.want)
		}
	}
}

func TestFailedRepLeavesTheMetrics(t *testing.T) {
	native, beam := goodCell(), goodCell()
	beam.Key, beam.API = "Flink Beam P1 Identity", harness.APIBeam
	bad := beam
	bad.ExecNS = 0
	good := repResult{SetupSec: map[int][]float64{100: {0.01}}, Cells: []cellRun{native, beam}}
	failed := repResult{SetupSec: map[int][]float64{100: {0.01}}, Cells: []cellRun{native, bad}}

	var wr workloadReport
	wr.count([]repResult{good, failed})
	if wr.Attempted != 4 || wr.Failed != 1 || wr.FailedShare != 0.25 {
		t.Errorf("attempted %d failed %d share %v, want 4 1 0.25", wr.Attempted, wr.Failed, wr.FailedShare)
	}
	kept := goodReps([]repResult{good, failed})
	ms, err := endToEnd(kept, cellTable(kept), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if len(m.Reps) != 1 || !(m.Value > 0) {
			t.Errorf("%s = %v over %d reps; the failed rep must be dropped and the value positive", m.Name, m.Value, len(m.Reps))
		}
	}
	if _, err := endToEnd(goodReps([]repResult{failed}), nil, 1); err == nil {
		t.Error("endToEnd over failed reps only: want an error, not a geometric mean over a zero time")
	}
}

// TestGateExitsNonZero drives the whole command with a fake cell result:
// one cell that reports fewer outputs than the reference must turn into
// failed > 0, correct = false and a non-zero exit.
func TestGateExitsNonZero(t *testing.T) {
	fake := func(short string) func(*harness.Runner, harness.Setup, int64, *recorder, int) cellRun {
		return func(r *harness.Runner, s harness.Setup, expected int64, _ *recorder, _ int) cellRun {
			c := goodCell()
			c.Key, c.System, c.API, c.Query = cellKey(s), s.System.String(), s.API, s.Query.String()
			c.Records, c.Expected, c.Output, c.LatencyObs = r.DatasetSize(), expected, expected, expected
			c.WallNS = float64(cellSlice) // one run per rep uses up the cell's slice
			if c.Key == short {
				c.Output--
			}
			return c
		}
	}
	defer func(old func(*harness.Runner, harness.Setup, int64, *recorder, int) cellRun) { cellFn = old }(cellFn)

	for _, tc := range []struct {
		short    string
		wantCode int
	}{{"", 0}, {"Spark P1 Sample", 1}} {
		cellFn = fake(tc.short)
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "calibrated", "--seed", "5", "--seconds", "1", "--trace", "0"}, &stdout, &stderr)
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res contractResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, stdout.String())
		}
		if code != tc.wantCode || res.Correct != (tc.wantCode == 0) || (res.Failed > 0) != (tc.wantCode != 0) || res.Attempted < 1 {
			t.Errorf("short cell %q: exit %d, result %+v; want exit %d", tc.short, code, res, tc.wantCode)
		}
		if tc.wantCode == 0 && len(res.Metrics) != len(endToEndDefs()) {
			t.Errorf("got %d metrics, want every end-to-end metric (%d)", len(res.Metrics), len(endToEndDefs()))
		}
		if tc.wantCode != 0 && !strings.Contains(stdout.String(), "failed_share") {
			t.Errorf("failed_share is not printed:\n%s", stdout.String())
		}
	}
}

func TestSeedReachesTheDataset(t *testing.T) {
	w, err := workloadByName("stateful_zero")
	if err != nil {
		t.Fatal(err)
	}
	w = w.capRecords(300)
	if got := w.config(300, 17, nil).DatasetSeed; got != 17 {
		t.Fatalf("DatasetSeed = %d, want the -seed value 17", got)
	}
	hash := func(seed uint64) uint64 {
		ref, err := newReference(w, seed)
		if err != nil {
			t.Fatal(err)
		}
		return ref.hash[300]
	}
	if hash(17) != hash(17) {
		t.Error("the same seed gave two different datasets")
	}
	if hash(17) == hash(18) {
		t.Error("two seeds gave the same dataset")
	}
}

// TestReferenceSpeed pins what reaches a time metric on a machine that
// runs at half speed: all of a zero-cost cell's time is halved, of a
// twinned cell's time only the part its zero-cost twin measured, and a
// cell without a compute part stays as measured. Counts never change.
func TestReferenceSpeed(t *testing.T) {
	native, beam := goodCell(), goodCell()
	beam.Key, beam.API = "Flink Beam P1 Identity", harness.APIBeam
	twins := []cellRun{native, beam}
	for i := range twins {
		twins[i].ExecNS, twins[i].Mallocs = 0.4e6, 100
	}
	reps := []repResult{{SetupSec: map[int][]float64{100: {0.01}}, Cells: []cellRun{native, beam}, Twins: twins}}

	for _, tc := range []struct {
		name     string
		compute  func(i int, cs *cellSamples) *cellSamples
		wantExec float64 // native_ns_per_record; as measured it is 1e6 ns / 100 records
	}{
		{"zero cost", func(_ int, cs *cellSamples) *cellSamples { return cs }, 5000},
		{"twinned", func(i int, _ *cellSamples) *cellSamples { return twinTable(reps)[i] }, 8000},
		{"as measured", func(int, *cellSamples) *cellSamples { return nil }, 10000},
	} {
		cells := cellTable(reps)
		for i, cs := range cells {
			cs.Compute = tc.compute(i, cs)
		}
		ms, err := endToEnd(reps, cells, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			switch m.Name {
			case "native_ns_per_record":
				if math.Abs(m.Value-tc.wantExec) > 1e-6 || math.Abs(m.Reps[0]-tc.wantExec) > 1e-6 {
					t.Errorf("%s: native_ns_per_record = %v (per rep %v), want %v", tc.name, m.Value, m.Reps, tc.wantExec)
				}
			case "allocs_per_record":
				if m.Value != 3 {
					t.Errorf("%s: allocs_per_record = %v, want 3 as counted", tc.name, m.Value)
				}
			case "setup_s":
				if math.Abs(m.Value-0.005) > 1e-12 {
					t.Errorf("%s: setup_s = %v, want 0.005", tc.name, m.Value)
				}
			}
		}
	}
}
