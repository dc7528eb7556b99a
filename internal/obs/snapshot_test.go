package obs

import (
	"math"
	"testing"
	"time"

	"beambench/internal/metrics"
)

func TestPlaneNilSafe(t *testing.T) {
	var p *Plane
	p.Expect([]string{"a"})
	lc := p.Cell("a")
	if lc != nil {
		t.Fatalf("nil plane returned non-nil cell")
	}
	lc.StartRun(CellSources{})
	lc.EndRun()
	lc.Finish(CellDone, "")
	snap := p.Snapshot()
	if snap.Schema != SnapshotSchemaVersion {
		t.Fatalf("nil plane snapshot schema = %d, want %d", snap.Schema, SnapshotSchemaVersion)
	}
	if len(snap.Cells) != 0 || snap.Progress.Total != 0 {
		t.Fatalf("nil plane snapshot not empty: %+v", snap)
	}
}

func TestPlaneLifecycle(t *testing.T) {
	p := NewPlane(1000, 3)
	p.Expect([]string{"cell-a", "cell-b", "cell-c"})

	snap := p.Snapshot()
	if snap.Records != 1000 || snap.Runs != 3 {
		t.Fatalf("snapshot config = %d/%d, want 1000/3", snap.Records, snap.Runs)
	}
	if snap.Progress.Total != 3 || snap.Progress.Pending != 3 {
		t.Fatalf("after Expect: %+v", snap.Progress)
	}

	col := metrics.NewCollector()
	col.Stage("source").Mark(10)
	col.Stage("sink").Mark(7)
	col.ObserveLatencySeconds([]float64{0.25})

	lc := p.Cell("cell-b")
	lc.StartRun(CellSources{
		Collector:   col,
		ConsumerLag: func() []LagSample { return []LagSample{{Topic: "input", Partition: 0, Lag: 3}} },
		TopicEnds:   func() (int64, int64, bool) { return 10, 7, true },
	})

	snap = p.Snapshot()
	if snap.Progress.Running != 1 || snap.Progress.Pending != 2 {
		t.Fatalf("after StartRun: %+v", snap.Progress)
	}
	var cb CellSnapshot
	for _, c := range snap.Cells {
		if c.Key == "cell-b" {
			cb = c
		}
	}
	if cb.State != CellRunning {
		t.Fatalf("cell-b state = %q", cb.State)
	}
	if cb.InputRecords != 10 || cb.OutputRecords != 7 {
		t.Fatalf("cell-b offsets = %d/%d", cb.InputRecords, cb.OutputRecords)
	}
	if len(cb.ConsumerLag) != 1 || cb.ConsumerLag[0].Lag != 3 {
		t.Fatalf("cell-b lag = %+v", cb.ConsumerLag)
	}
	// Stages must come back sorted by name for a byte-stable feed.
	if len(cb.Stages) != 2 || cb.Stages[0].Name != "sink" || cb.Stages[1].Name != "source" {
		t.Fatalf("cell-b stages not name-sorted: %+v", cb.Stages)
	}
	if cb.Latency == nil || cb.Latency.Count != 1 {
		t.Fatalf("cell-b latency = %+v", cb.Latency)
	}

	// EndRun keeps the final offsets and the collector, drops the
	// broker-backed sources.
	lc.EndRun()
	snap = p.Snapshot()
	for _, c := range snap.Cells {
		if c.Key != "cell-b" {
			continue
		}
		if c.RunsDone != 1 {
			t.Fatalf("runsDone = %d", c.RunsDone)
		}
		if c.InputRecords != 10 || c.OutputRecords != 7 {
			t.Fatalf("offsets lost on EndRun: %d/%d", c.InputRecords, c.OutputRecords)
		}
		if len(c.ConsumerLag) != 0 {
			t.Fatalf("consumer lag survived EndRun: %+v", c.ConsumerLag)
		}
		if len(c.Stages) != 2 {
			t.Fatalf("stages lost on EndRun: %+v", c.Stages)
		}
	}

	lc.Finish(CellDone, "")
	p.Cell("cell-a").Finish(CellSkipped, "unsupported")
	p.Cell("cell-c").Finish(CellFailed, "boom")
	snap = p.Snapshot()
	if snap.Progress.Done != 1 || snap.Progress.Skipped != 1 || snap.Progress.Failed != 1 {
		t.Fatalf("terminal states: %+v", snap.Progress)
	}
	for _, c := range snap.Cells {
		if c.Key == "cell-a" && c.SkipReason != "unsupported" {
			t.Fatalf("skip reason = %q", c.SkipReason)
		}
	}
}

func TestPlaneCellOrderIsRegistrationOrder(t *testing.T) {
	p := NewPlane(1, 1)
	p.Expect([]string{"z", "a", "m"})
	snap := p.Snapshot()
	got := []string{snap.Cells[0].Key, snap.Cells[1].Key, snap.Cells[2].Key}
	want := []string{"z", "a", "m"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell order = %v, want %v", got, want)
		}
	}
}

func TestWatermarkLags(t *testing.T) {
	tr := NewTracer(8).Scoped("Flink P2 WindowedCount/run0")
	ahead := tr.Gauge("watermark-lag/source")
	behind := tr.Gauge("watermark-lag/window")
	drained := tr.Gauge("watermark-lag/sink")
	unset := tr.Gauge("watermark-lag/idle")
	_ = unset

	base := time.Unix(100, 0)
	ahead.SetTime(base.Add(5 * time.Second))
	behind.SetTime(base.Add(2 * time.Second))
	drained.Set(math.MaxInt64)

	lags := WatermarkLags(tr)
	if len(lags) != 3 {
		t.Fatalf("got %d lags (%+v), want 3 (unset gauge yields no sample)", len(lags), lags)
	}
	byOp := map[string]float64{}
	for _, l := range lags {
		byOp[l.Operator] = l.LagSec
	}
	if byOp["source"] != 0 {
		t.Fatalf("frontier operator lag = %v, want 0", byOp["source"])
	}
	if byOp["window"] != 3 {
		t.Fatalf("window lag = %v, want 3", byOp["window"])
	}
	if byOp["sink"] != 0 {
		t.Fatalf("drained operator lag = %v, want 0", byOp["sink"])
	}
	// Operator labels are the bare names: scope prefix and the
	// watermark-lag/ marker stripped.
	for op := range byOp {
		if op == "" || len(op) > len("source") {
			t.Fatalf("operator label %q not stripped", op)
		}
	}
}

func TestWatermarkLagsNilTracer(t *testing.T) {
	if got := WatermarkLags(nil); got != nil {
		t.Fatalf("nil tracer lags = %+v", got)
	}
}
