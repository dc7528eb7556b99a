package flink

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"beambench/internal/watermark"
)

var winEpoch = time.Date(2006, time.March, 1, 0, 0, 0, 0, time.UTC)

// windowedRecord renders "sec|key" test records.
func windowedRecord(sec int, key string) []byte {
	return []byte(fmt.Sprintf("%d|%s", sec, key))
}

// testAggConfig counts "sec|key" records per key over 1 s tumbling
// windows. Its extractors do not allocate, so the 0-alloc pin below
// measures the adapter and the operator alone.
func testAggConfig() watermark.AggConfig {
	a, err := watermark.NewTumblingAssigner(time.Second)
	if err != nil {
		panic(err)
	}
	return watermark.AggConfig{
		Assigner: a,
		Agg:      watermark.AggCount,
		EventTime: func(rec []byte) (time.Time, error) {
			i := bytes.IndexByte(rec, '|')
			if i < 0 {
				return time.Time{}, fmt.Errorf("record %q has no separator", rec)
			}
			sec := 0
			for _, c := range rec[:i] {
				sec = sec*10 + int(c-'0')
			}
			return winEpoch.Add(time.Duration(sec) * time.Second), nil
		},
		Key: func(rec []byte) ([]byte, error) {
			return rec[bytes.IndexByte(rec, '|')+1:], nil
		},
		Format: func(start time.Time, key []byte, count int64) []byte {
			return []byte(fmt.Sprintf("%d:%s=%d", start.Sub(winEpoch)/time.Second, key, count))
		},
	}
}

// aggFactory deploys the shared windowed aggregate per subtask.
func aggFactory(cfg watermark.AggConfig) KeyedFactory {
	return func(OperatorContext) (watermark.Operator, error) { return watermark.NewAggOperator(cfg) }
}

func TestKeyedProcessCountsPerWindowAndKey(t *testing.T) {
	cluster := newTestCluster(t, ClusterConfig{})
	env := NewEnvironment(cluster)
	sink := NewRecordCollector()
	cfg := testAggConfig()

	input := [][]byte{
		windowedRecord(0, "a"),
		windowedRecord(0, "b"),
		windowedRecord(0, "a"),
		windowedRecord(1, "a"), // closes window 0
		windowedRecord(2, "b"), // closes window 1
	}
	env.AddSource("src", SliceSource(input)).
		AssignTimestampsBounded("assign", cfg.EventTime, 0).
		KeyBy(cfg.Key).
		KeyedProcess("WindowedCount", aggFactory(cfg)).
		AddSink("sink", CollectSink(sink))
	if _, err := env.Execute("windowed"); err != nil {
		t.Fatal(err)
	}
	got := sink.Strings()
	want := []string{"0:a=2", "0:b=1", "1:a=1", "2:b=1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("panes = %v, want %v", got, want)
	}
}

// TestKeyedProcessFiresBeforeEndOfInput pins watermark-driven
// firing: a pane whose window the watermark passed must be emitted by
// the operator while the source is still running, not buffered to the
// final flush.
func TestKeyedProcessFiresBeforeEndOfInput(t *testing.T) {
	cluster := newTestCluster(t, ClusterConfig{})
	env := NewEnvironment(cluster)
	sink := NewRecordCollector()
	cfg := testAggConfig()

	// Tag panes with a downstream marker counting how many records the
	// sink saw before the stateful operator's flush could have run: the
	// early pane must arrive while records still flow.
	input := [][]byte{windowedRecord(0, "a"), windowedRecord(5, "a")}
	env.AddSource("src", SliceSource(input)).
		AssignTimestampsBounded("assign", cfg.EventTime, 0).
		KeyBy(cfg.Key).
		KeyedProcess("WindowedCount", aggFactory(cfg)).
		AddSink("sink", CollectSink(sink))
	if _, err := env.Execute("early"); err != nil {
		t.Fatal(err)
	}
	got := sink.Strings()
	want := []string{"0:a=1", "5:a=1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("panes = %v, want %v (window 0 fired by the record at t=5)", got, want)
	}
}

func TestKeyedProcessKeyedParallelism(t *testing.T) {
	cluster := newTestCluster(t, ClusterConfig{})
	env := NewEnvironment(cluster)
	sink := NewRecordCollector()
	cfg := testAggConfig()

	var input [][]byte
	for i := range 60 {
		input = append(input, windowedRecord(i/10, fmt.Sprintf("k%d", i%5)))
	}
	env.AddSource("src", SliceSource(input)).
		AssignTimestampsBounded("assign", cfg.EventTime, 0).
		KeyBy(cfg.Key).
		KeyedProcess("WindowedCount", aggFactory(cfg)).SetParallelism(3).
		AddSink("sink", CollectSink(sink))
	if _, err := env.Execute("windowed-p3"); err != nil {
		t.Fatal(err)
	}
	// 6 windows x 5 keys, 2 records each: each (window, key) pane must
	// appear exactly once with count 2 — keyed routing kept state whole.
	counts := make(map[string]int)
	for _, s := range sink.Strings() {
		counts[s]++
	}
	if len(counts) != 30 {
		t.Fatalf("distinct panes = %d, want 30", len(counts))
	}
	for pane, n := range counts {
		if n != 1 {
			t.Errorf("pane %q emitted %d times", pane, n)
		}
		if !strings.HasSuffix(pane, "=2") {
			t.Errorf("pane %q count wrong, want =2", pane)
		}
	}
}

// TestKeyedProcessFactoryErrorFailsJob pins where a rejected operator
// config surfaces: the factory runs when the subtask opens, and its
// error fails the job. (What the config rejects is the operator's own
// test, watermark.TestNewAggOperatorValidation.)
func TestKeyedProcessFactoryErrorFailsJob(t *testing.T) {
	cluster := newTestCluster(t, ClusterConfig{})
	env := NewEnvironment(cluster)
	sink := NewRecordCollector()
	cfg := testAggConfig()
	cfg.Key = nil
	env.AddSource("src", SliceSource(records(1))).
		KeyedProcess("w", aggFactory(cfg)).
		AddSink("sink", CollectSink(sink))
	if _, err := env.Execute("bad"); err == nil {
		t.Error("invalid operator config accepted")
	}
}

// TestKeyedProcessRecordPathDoesNotAllocate pins the emit binding: the
// stage hands the operator one emit value, bound when the subtask
// opens, on every call — so a record that lands in an existing
// (window, key) pane and a watermark that releases nothing cost no
// allocation through the adapter.
func TestKeyedProcessRecordPathDoesNotAllocate(t *testing.T) {
	cluster := newTestCluster(t, ClusterConfig{})
	env := NewEnvironment(cluster)
	op := &operator{name: "w", kind: opTransform, keyedFactory: aggFactory(testAggConfig()), metrics: &OperatorMetrics{Name: "w"}}
	st, err := env.buildStage(op, &subtaskContext{par: 1}, discardCollector{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := windowedRecord(7, "a")
	if err := st.col.Collect(rec); err != nil {
		t.Fatal(err)
	}
	idle := winEpoch.Add(7 * time.Second) // window [7s, 8s) is still open
	if n := testing.AllocsPerRun(100, func() {
		if err := st.col.Collect(rec); err != nil {
			t.Fatal(err)
		}
		if err := st.keyed.onWatermark(idle); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Process on an existing pane + idle OnWatermark allocate %v times per record, want 0", n)
	}
}
