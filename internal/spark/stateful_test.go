package spark

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"beambench/internal/simcost"
	"beambench/internal/watermark"
)

var winEpoch = time.Date(2006, time.March, 1, 0, 0, 0, 0, time.UTC)

func windowedRecord(sec int, key string) []byte {
	return []byte(fmt.Sprintf("%d|%s", sec, key))
}

// testEventTime and testKey parse "sec|key" records without
// allocating, so the 0-alloc pin below measures the adapter and the
// operator alone.
func testEventTime(rec []byte) (time.Time, error) {
	i := bytes.IndexByte(rec, '|')
	if i < 0 {
		return time.Time{}, fmt.Errorf("record %q has no separator", rec)
	}
	sec := 0
	for _, c := range rec[:i] {
		sec = sec*10 + int(c-'0')
	}
	return winEpoch.Add(time.Duration(sec) * time.Second), nil
}

func testKey(rec []byte) ([]byte, error) {
	return rec[bytes.IndexByte(rec, '|')+1:], nil
}

func testFormat(start time.Time, key []byte, count int64) []byte {
	return []byte(fmt.Sprintf("%d:%s=%d", start.Sub(winEpoch)/time.Second, key, count))
}

// countWindow deploys the shared windowed aggregate as a per-(window,
// key) count over tumbling windows of the given size.
func countWindow(size time.Duration) StatefulFactory {
	return func(int, func(time.Duration)) (watermark.Operator, error) {
		a, err := watermark.NewTumblingAssigner(size)
		if err != nil {
			return nil, err
		}
		return watermark.NewAggOperator(watermark.AggConfig{
			Assigner: a, Agg: watermark.AggCount,
			EventTime: testEventTime, Key: testKey, Format: testFormat,
		})
	}
}

// runWindowed drives a windowed count over the input with the given
// per-batch size and returns the collected output in order.
func runWindowed(t *testing.T, input [][]byte, perBatch int) []string {
	t.Helper()
	cluster := newTestCluster(t, ClusterConfig{})
	ssc, err := NewStreamingContext(cluster, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	ssc.SliceStream(input, perBatch).
		AssignTimestampsBounded(testEventTime, 0).
		Stateful("WindowedCount", countWindow(time.Second)).
		ForeachRecord("collect", func(rec []byte) error {
			got = append(got, string(rec))
			return nil
		})
	if _, err := ssc.RunBounded(); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestStatefulCountsAcrossBatches(t *testing.T) {
	input := [][]byte{
		windowedRecord(0, "a"),
		windowedRecord(0, "b"),
		windowedRecord(0, "a"),
		windowedRecord(1, "a"),
		windowedRecord(2, "b"),
	}
	want := []string{"0:a=2", "0:b=1", "1:a=1", "2:b=1"}
	// The pane sequence must not depend on how micro-batches slice the
	// input: state persists across batches and windows fire in event-time
	// order at batch boundaries.
	for _, perBatch := range []int{1, 2, 5} {
		got := runWindowed(t, input, perBatch)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("perBatch=%d: panes = %v, want %v", perBatch, got, want)
		}
	}
}

// TestStatefulStateSurvivesBatches pins the state path itself: a window
// split across two micro-batches must produce one pane with the full
// count, not two partial panes.
func TestStatefulStateSurvivesBatches(t *testing.T) {
	input := [][]byte{
		windowedRecord(0, "a"),
		windowedRecord(0, "a"), // same window, lands in batch 2 at perBatch=1
		windowedRecord(3, "a"),
	}
	got := runWindowed(t, input, 1)
	want := []string{"0:a=2", "3:a=1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("panes = %v, want %v", got, want)
	}
}

func TestRepartitionByKeyKeepsKeysTogether(t *testing.T) {
	cluster := newTestCluster(t, ClusterConfig{})
	ssc, err := NewStreamingContext(cluster, Config{DefaultParallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	var input [][]byte
	for i := range 90 {
		input = append(input, windowedRecord(i/30, fmt.Sprintf("k%d", i%6)))
	}
	var mu sync.Mutex
	counts := make(map[string]int)
	ssc.SliceStream(input, 10).
		AssignTimestampsBounded(testEventTime, 0).
		RepartitionByKey(3, testKey).
		Stateful("WindowedCount", countWindow(time.Second)).
		ForeachRecord("collect", func(rec []byte) error {
			mu.Lock()
			counts[string(rec)]++
			mu.Unlock()
			return nil
		})
	if _, err := ssc.RunBounded(); err != nil {
		t.Fatal(err)
	}
	// 3 windows x 6 keys, 5 records each: every pane exactly once with
	// the full count — the keyed shuffle reunited each key's records.
	if len(counts) != 18 {
		t.Fatalf("distinct panes = %d, want 18: %v", len(counts), counts)
	}
	for pane, n := range counts {
		if n != 1 {
			t.Errorf("pane %q emitted %d times", pane, n)
		}
		if !strings.HasSuffix(pane, "=5") {
			t.Errorf("pane %q count wrong, want =5", pane)
		}
	}
}

func TestStatefulStageRejectsTwoOutputs(t *testing.T) {
	cluster := newTestCluster(t, ClusterConfig{})
	ssc, err := NewStreamingContext(cluster, Config{})
	if err != nil {
		t.Fatal(err)
	}
	windowed := ssc.SliceStream([][]byte{windowedRecord(0, "a")}, 0).
		AssignTimestampsBounded(testEventTime, 0).
		Stateful("WindowedCount", countWindow(time.Second))
	windowed.ForeachRecord("one", func([]byte) error { return nil })
	windowed.ForeachRecord("two", func([]byte) error { return nil })
	if _, err := ssc.RunBounded(); err == nil {
		t.Error("stateful stage with two outputs accepted")
	}
}

// TestStatefulFactoryErrorFailsRun pins where a rejected operator
// config surfaces: the factory runs on the stage's first batch and its
// error fails the run. (What the config rejects is the operator's own
// test, watermark.TestNewAggOperatorValidation.)
func TestStatefulFactoryErrorFailsRun(t *testing.T) {
	cluster := newTestCluster(t, ClusterConfig{})
	ssc, err := NewStreamingContext(cluster, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ssc.SliceStream([][]byte{windowedRecord(0, "a")}, 0).
		Stateful("bad", countWindow(0)).
		ForeachRecord("collect", func([]byte) error { return nil })
	if _, err := ssc.RunBounded(); err == nil {
		t.Error("zero window size accepted")
	}
}

// TestStatefulRecordPathDoesNotAllocate pins the adapter's cost: one
// emit per task and one charge func per instance, so a batch whose
// records land in existing (window, key) panes, closed by a watermark
// that releases nothing, allocates nothing.
func TestStatefulRecordPathDoesNotAllocate(t *testing.T) {
	node := &statefulNode{factory: countWindow(time.Second)}
	instances, err := node.instancesFor(1)
	if err != nil {
		t.Fatal(err)
	}
	inst := instances[0]
	emitted := 0
	emit := func([]byte) error { emitted++; return nil }
	batch := [][]byte{windowedRecord(7, "a"), windowedRecord(7, "a")}
	idle := winEpoch.Add(7 * time.Second) // window [7s, 8s) is still open
	if err := inst.deliver(batch, idle, emit); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := inst.deliver(batch, idle, emit); err != nil {
			t.Fatal(err)
		}
	}); n != 0 || emitted != 0 {
		t.Errorf("batch into existing panes + idle watermark: %v allocs per batch, %d emissions; want 0, 0", n, emitted)
	}
}

// chargingOperator charges a fixed cost per record through the charge
// func its factory was given.
type chargingOperator struct{ charge func(time.Duration) }

func (o chargingOperator) Process([]byte, func([]byte) error) error {
	o.charge(time.Microsecond)
	return nil
}
func (chargingOperator) OnWatermark(time.Time, func([]byte) error) error { return nil }
func (chargingOperator) Flush(func([]byte) error) error                  { return nil }

// TestStatefulChargeFollowsRunningTask pins the charge contract: the
// factory receives charge once, when the partition's operator is built,
// yet every call lands on the meter of the task delivering at that
// moment — task meters live for one batch.
func TestStatefulChargeFollowsRunningTask(t *testing.T) {
	node := &statefulNode{factory: func(_ int, charge func(time.Duration)) (watermark.Operator, error) {
		return chargingOperator{charge: charge}, nil
	}}
	instances, err := node.instancesFor(1)
	if err != nil {
		t.Fatal(err)
	}
	inst := instances[0]
	sim := simcost.New(1)
	for batch, n := range []int{3, 5} {
		meter := sim.NewMeter()
		inst.meter = meter
		if err := inst.deliver(make([][]byte, n), time.Time{}, nil); err != nil {
			t.Fatal(err)
		}
		meter.Flush()
		if want := time.Duration(n) * time.Microsecond; meter.Charged() != want {
			t.Errorf("batch %d: task meter charged %v, want %v", batch, meter.Charged(), want)
		}
	}
}
