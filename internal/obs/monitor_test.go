package obs

import (
	"strconv"
	"testing"
	"time"

	"beambench/internal/metrics"
)

func byGaugeName(sums []GaugeSummary) map[string]GaugeSummary {
	out := make(map[string]GaugeSummary, len(sums))
	for _, s := range sums {
		out[s.Name] = s
	}
	return out
}

func TestMonitorSamplesAndSummaries(t *testing.T) {
	tr := NewTracer(1 << 10)
	scope := tr.Scoped("cell/run0")

	var lag int64 = 10
	m := NewMonitor(scope, time.Millisecond, CellSources{
		// The output topic is torn down: only the input partition
		// yields samples.
		ConsumerLag: func() []LagSample {
			v := lag
			if lag > 0 {
				lag--
			}
			return []LagSample{{Topic: "input", Partition: 0, Lag: v}}
		},
	})
	m.Start()
	time.Sleep(10 * time.Millisecond)
	sums := m.Stop()

	byName := byGaugeName(sums)
	// Summaries carry the bare gauge name — the scope identifies the
	// run, and bare names let one cell's runs merge by gauge.
	got, ok := byName["consumer-lag/input/p0"]
	if !ok {
		t.Fatalf("no consumer-lag summary; got %+v", sums)
	}
	if got.Samples < 2 {
		t.Errorf("only %d samples in 10ms at 1ms cadence", got.Samples)
	}
	if got.Max != 10 {
		t.Errorf("max = %v, want 10 (first sample)", got.Max)
	}
	if got.Mean <= 0 || got.Mean > 10 {
		t.Errorf("mean = %v out of range", got.Mean)
	}
	if len(sums) != 1 {
		t.Errorf("absent partitions produced series: %+v", sums)
	}
	// Counter events landed in the shared ring under the scope prefix.
	found := false
	for _, ev := range tr.Events() {
		if ev.Phase == PhaseCounter && ev.Track == "cell/run0/consumer-lag/input/p0" {
			found = true
		}
	}
	if !found {
		t.Error("no counter events recorded on the scoped track")
	}
	// Stop is idempotent and stable.
	again := m.Stop()
	if len(again) != len(sums) {
		t.Errorf("second Stop() returned %d series, want %d", len(again), len(sums))
	}
}

func TestMonitorFinalTickCoversShortRuns(t *testing.T) {
	tr := NewTracer(64)
	m := NewMonitor(tr, time.Hour, CellSources{ // cadence far beyond the run
		ConsumerLag: func() []LagSample { return []LagSample{{Topic: "x", Lag: 7}} },
	})
	m.Start()
	sums := m.Stop()
	if len(sums) != 1 || sums[0].Samples != 1 || sums[0].Last != 7 {
		t.Errorf("final tick on Stop missing: %+v", sums)
	}
}

// setWatermarks registers four operator gauges on tr: one at the
// frontier, one 5s behind it, one never set and one drained.
func setWatermarks(tr *Tracer) {
	base := time.Unix(1000, 0)
	tr.Gauge("watermark-lag/source").SetTime(base.Add(5 * time.Second))
	tr.Gauge("watermark-lag/gbk").SetTime(base)
	tr.Gauge("watermark-lag/idle")
	tr.Gauge("watermark-lag/sink").SetTime(time.Unix(0, 1<<63-1)) // watermark.EndOfTime
}

func TestMonitorWatermarkLagIsFrontierRelative(t *testing.T) {
	tr := NewTracer(256)
	setWatermarks(tr)
	m := NewMonitor(tr, time.Hour, CellSources{Tracer: tr})
	m.Start()
	byName := byGaugeName(m.Stop())
	if s := byName["watermark-lag/source"]; s.Last != 0 {
		t.Errorf("frontier operator lag = %v, want 0", s.Last)
	}
	if s := byName["watermark-lag/gbk"]; s.Last != 5 {
		t.Errorf("behind operator lag = %v s, want 5", s.Last)
	}
	if s := byName["watermark-lag/sink"]; s.Last != 0 {
		t.Errorf("drained operator lag = %v, want 0", s.Last)
	}
	if _, ok := byName["watermark-lag/idle"]; ok {
		t.Error("never-set gauge produced samples")
	}
}

// TestMonitorAndPlaneReadOneSource checks the one-path property: for
// the same CellSources, the Monitor's final-tick values are exactly
// what a Plane scrape reports — same series, same numbers.
func TestMonitorAndPlaneReadOneSource(t *testing.T) {
	tr := NewTracer(256)
	setWatermarks(tr)
	col := metrics.NewCollector()
	src := CellSources{
		Collector: col,
		Tracer:    tr,
		ConsumerLag: func() []LagSample {
			return []LagSample{
				{Topic: "input", Partition: 0, Lag: 4},
				{Topic: "input", Partition: 1, Lag: 0},
				{Topic: "output", Partition: 0, Lag: 2},
			}
		},
		TopicEnds: func() (int64, int64, bool) { return 10, 3, true },
	}
	p := NewPlane(10, 1)
	p.Cell("cell").StartRun(src)
	m := NewMonitor(tr, time.Hour, src)
	m.Start()

	// Stage rates are one-second windows: keep the marks, the final
	// tick and the scrape inside one second.
	if left := time.Until(time.Now().Truncate(time.Second).Add(time.Second)); left < 200*time.Millisecond {
		time.Sleep(left)
	}
	col.Stage("source").Mark(10)
	col.Stage("sink").Mark(7)
	col.Stage("idle")
	got := byGaugeName(m.Stop())
	cs := p.Snapshot().Cells[0]

	want := map[string]float64{}
	for _, l := range cs.ConsumerLag {
		want["consumer-lag/"+l.Topic+"/p"+strconv.Itoa(l.Partition)] = float64(l.Lag)
	}
	for _, s := range cs.Stages {
		want["rate/"+s.Name] = float64(s.CurrentRate)
	}
	for _, w := range cs.WatermarkLag {
		want["watermark-lag/"+w.Operator] = w.LagSec
	}
	if len(want) != 3+3+3 {
		t.Fatalf("snapshot series = %v, want 3 lags, 3 stages, 3 set watermarks", want)
	}
	if len(got) != len(want) {
		t.Errorf("monitor has %d series, snapshot %d: %+v", len(got), len(want), got)
	}
	for name, v := range want {
		if s, ok := got[name]; !ok || s.Last != v {
			t.Errorf("%s: monitor last = %+v, snapshot = %v", name, s, v)
		}
	}
	if got["rate/source"].Last != 10 || got["watermark-lag/gbk"].Last != 5 {
		t.Errorf("monitor values not the marked ones: %+v", got)
	}
}

func TestMergeGaugeSummaries(t *testing.T) {
	a := []GaugeSummary{{Name: "x", Samples: 2, Max: 4, Mean: 3, Last: 4}}
	b := []GaugeSummary{
		{Name: "x", Samples: 2, Max: 10, Mean: 9, Last: 8},
		{Name: "y", Samples: 1, Max: 1, Mean: 1, Last: 1},
	}
	out := MergeGaugeSummaries(a, b)
	if len(out) != 2 {
		t.Fatalf("merged %d series, want 2", len(out))
	}
	x := out[0]
	if x.Name != "x" || x.Samples != 4 || x.Max != 10 || x.Last != 8 {
		t.Errorf("merged x = %+v", x)
	}
	if want := (3.0*2 + 9.0*2) / 4; x.Mean != want {
		t.Errorf("merged mean = %v, want %v", x.Mean, want)
	}
}
