package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"beambench/internal/harness"
	"beambench/internal/metrics"
)

func baseReport() *harness.ReportJSON {
	return &harness.ReportJSON{
		Records:      1000,
		Runs:         1,
		Parallelisms: []int{1},
		Fusion:       "default",
		Ingest:       "preload",
		Cells: []harness.CellJSON{
			{
				System: "Flink", API: "Beam", Query: "Grep", Parallelism: 1,
				TimesSec: []float64{0.10}, MeanSec: 0.10, OutputRecords: 300,
				Latency: &metrics.LatencySummary{Count: 300, P50: 0.010, P90: 0.015, P99: 0.020, Max: 0.030},
			},
			{
				System: "Spark", API: "native", Query: "Identity", Parallelism: 1,
				TimesSec: []float64{0.20}, MeanSec: 0.20, OutputRecords: 1000,
			},
			{
				System: "Apex", API: "native", Query: "Grep", Parallelism: 1,
				Skipped: true, SkipReason: "unsupported transform",
			},
		},
	}
}

func writeReport(t *testing.T, rep *harness.ReportJSON, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func runDiff(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestIdenticalReportsExitZero(t *testing.T) {
	a := writeReport(t, baseReport(), "a.json")
	b := writeReport(t, baseReport(), "b.json")
	code, out, _ := runDiff(t, a, b)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "RESULT: OK") {
		t.Fatalf("missing OK verdict:\n%s", out)
	}
}

func TestInjectedTimeRegressionExitsOne(t *testing.T) {
	base := writeReport(t, baseReport(), "base.json")
	worse := baseReport()
	worse.Cells[0].MeanSec = 0.20 // +100% against a 25% threshold
	cand := writeReport(t, worse, "cand.json")
	code, out, _ := runDiff(t, base, cand)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "regressed") || !strings.Contains(out, "RESULT: REGRESSED") {
		t.Fatalf("regression not reported:\n%s", out)
	}
}

func TestRegressionWithinThresholdPasses(t *testing.T) {
	base := writeReport(t, baseReport(), "base.json")
	slightly := baseReport()
	slightly.Cells[0].MeanSec = 0.11 // +10% under the default 25%
	cand := writeReport(t, slightly, "cand.json")
	if code, out, _ := runDiff(t, base, cand); code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out)
	}
	// The same delta trips a tightened threshold.
	if code, _, _ := runDiff(t, "-threshold", "0.05", base, cand); code != 1 {
		t.Fatal("tightened threshold did not trip")
	}
}

func TestFloorSuppressesNoiseOnTinyCells(t *testing.T) {
	b := baseReport()
	b.Cells[0].MeanSec = 2e-6 // 2ns/record at 1000 records
	base := writeReport(t, b, "base.json")
	c := baseReport()
	c.Cells[0].MeanSec = 4e-6 // +100% but only +2ns/record absolute
	cand := writeReport(t, c, "cand.json")
	if code, out, _ := runDiff(t, base, cand); code != 0 {
		t.Fatalf("sub-floor regression tripped the gate:\n%s", out)
	}
	if code, _, _ := runDiff(t, "-floor", "0ns", base, cand); code != 1 {
		t.Fatal("zero floor did not trip on the relative regression")
	}
}

func TestLatencyRegressionExitsOne(t *testing.T) {
	base := writeReport(t, baseReport(), "base.json")
	worse := baseReport()
	worse.Cells[0].Latency.P99 = 0.060 // 3x against a 50% threshold
	cand := writeReport(t, worse, "cand.json")
	code, out, _ := runDiff(t, base, cand)
	if code != 1 || !strings.Contains(out, "latency") {
		t.Fatalf("exit = %d\n%s", code, out)
	}
}

func TestOutputDriftExitsOne(t *testing.T) {
	base := writeReport(t, baseReport(), "base.json")
	drift := baseReport()
	drift.Cells[0].OutputRecords = 299
	cand := writeReport(t, drift, "cand.json")
	code, out, _ := runDiff(t, base, cand)
	if code != 1 || !strings.Contains(out, "output count changed") {
		t.Fatalf("exit = %d\n%s", code, out)
	}
}

func TestNewSkipExitsOneRemovedSkipPasses(t *testing.T) {
	base := writeReport(t, baseReport(), "base.json")
	skippy := baseReport()
	skippy.Cells[1].Skipped = true
	skippy.Cells[1].SkipReason = "newly unsupported"
	cand := writeReport(t, skippy, "cand.json")
	if code, out, _ := runDiff(t, base, cand); code != 1 || !strings.Contains(out, "NEW SKIP") {
		t.Fatalf("new skip not fatal: exit %d\n%s", code, out)
	}

	unskipped := baseReport()
	unskipped.Cells[2].Skipped = false
	unskipped.Cells[2].SkipReason = ""
	unskipped.Cells[2].MeanSec = 0.1
	unskipped.Cells[2].TimesSec = []float64{0.1}
	unskipped.Cells[2].OutputRecords = 300
	cand = writeReport(t, unskipped, "cand.json")
	if code, out, _ := runDiff(t, base, cand); code != 0 || !strings.Contains(out, "UNSKIPPED") {
		t.Fatalf("removed skip should pass: exit %d\n%s", code, out)
	}
}

func TestMissingCellExitsOne(t *testing.T) {
	base := writeReport(t, baseReport(), "base.json")
	fewer := baseReport()
	fewer.Cells = fewer.Cells[:1]
	cand := writeReport(t, fewer, "cand.json")
	if code, out, _ := runDiff(t, base, cand); code != 1 || !strings.Contains(out, "MISSING") {
		t.Fatalf("missing cell not fatal: exit %d\n%s", code, out)
	}
}

func TestDifferingRecordCountsNormalize(t *testing.T) {
	base := writeReport(t, baseReport(), "base.json")
	scaled := baseReport()
	scaled.Records = 2000
	for i := range scaled.Cells {
		scaled.Cells[i].MeanSec *= 2 // same per-record time at twice the records
		scaled.Cells[i].OutputRecords *= 2
	}
	cand := writeReport(t, scaled, "cand.json")
	if code, out, _ := runDiff(t, base, cand); code != 0 {
		t.Fatalf("same per-record speed at 2x records tripped: exit %d\n%s", code, out)
	}
}

func TestJSONOutput(t *testing.T) {
	base := writeReport(t, baseReport(), "base.json")
	worse := baseReport()
	worse.Cells[0].MeanSec = 0.5
	cand := writeReport(t, worse, "cand.json")
	code, out, _ := runDiff(t, "-json", base, cand)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var diff Diff
	if err := json.Unmarshal([]byte(out), &diff); err != nil {
		t.Fatalf("-json output does not decode: %v\n%s", err, out)
	}
	if !diff.Regressed() {
		t.Fatal("decoded diff lost the regression")
	}
}

func TestOperationalErrorsExitTwo(t *testing.T) {
	good := writeReport(t, baseReport(), "good.json")
	if code, _, _ := runDiff(t, good, filepath.Join(t.TempDir(), "absent.json")); code != 2 {
		t.Fatal("missing file did not exit 2")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"records": "not a number"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runDiff(t, good, bad); code != 2 {
		t.Fatal("malformed file did not exit 2")
	}
	if code, _, _ := runDiff(t, good); code != 2 {
		t.Fatal("missing argument did not exit 2")
	}
	if code, _, _ := runDiff(t, "-threshold", "-1", good, good); code != 2 {
		t.Fatal("negative threshold did not exit 2")
	}
}

// TestHostFactsOptional: a baseline recorded before host facts were
// kept compares against a candidate that has them; the differing host
// is shown, and it does not fail the comparison.
func TestHostFactsOptional(t *testing.T) {
	base := writeReport(t, baseReport(), "base.json")
	withHost := baseReport()
	withHost.Host = &harness.Host{NumCPU: 2, GOMAXPROCS: 1, Workers: 4, GoVersion: "go1.24.0"}
	cand := writeReport(t, withHost, "cand.json")
	code, out, _ := runDiff(t, base, cand)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out)
	}
	if want := "HOST base: not recorded; candidate: nproc=2 GOMAXPROCS=1 workers=4 go1.24.0"; !strings.Contains(out, want) {
		t.Fatalf("host line missing %q:\n%s", want, out)
	}
	if _, out, _ := runDiff(t, base, base); strings.Contains(out, "HOST") {
		t.Fatalf("host line printed though neither report records one:\n%s", out)
	}
}
