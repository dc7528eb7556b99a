package queries

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"beambench/internal/apex"
	"beambench/internal/flink"
	"beambench/internal/spark"
	"beambench/internal/watermark"
	"beambench/internal/yarn"
)

var clockEpoch = time.Date(2006, time.March, 1, 0, 0, 0, 0, time.UTC)

// recordingOperator is the same operator on every engine: it logs the
// contract calls it receives ("P<sec>" per record, "W<sec>" per
// watermark, "Wend" for end-of-time, "F" for the flush) and emits one
// marker record from every OnWatermark and Flush, so the log is what
// differs between engines — their firing clocks — and nothing else.
type recordingOperator struct {
	mu  sync.Mutex
	log []string
}

func (o *recordingOperator) note(ev string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.log = append(o.log, ev)
}

func (o *recordingOperator) calls() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return strings.Join(o.log, " ")
}

func (o *recordingOperator) Process(rec []byte, _ func([]byte) error) error {
	o.note("P" + string(rec))
	return nil
}

func (o *recordingOperator) OnWatermark(w time.Time, emit func([]byte) error) error {
	ev := "Wend"
	if !w.Equal(watermark.EndOfTime) {
		ev = fmt.Sprintf("W%d", w.Sub(clockEpoch)/time.Second)
	}
	o.note(ev)
	return emit([]byte("after " + ev))
}

func (o *recordingOperator) Flush(emit func([]byte) error) error {
	o.note("F")
	return emit([]byte("after F"))
}

// clockEventTime reads a record "<sec>" as clockEpoch + sec.
func clockEventTime(rec []byte) (time.Time, error) {
	var sec int
	if _, err := fmt.Sscanf(string(rec), "%d", &sec); err != nil {
		return time.Time{}, err
	}
	return clockEpoch.Add(time.Duration(sec) * time.Second), nil
}

func clockKey([]byte) ([]byte, error) { return []byte("k"), nil }

// TestSameOperatorThreeFiringClocks deploys one recording operator
// through each engine's keyed hook over the same four records (event
// seconds 0, 0, 1, 3; out-of-orderness bound 0; two records per
// streaming window / micro-batch) and pins the call sequence each
// engine's clock produces. The sequences are the mechanism under
// measurement; everything the operator does with the calls is shared.
func TestSameOperatorThreeFiringClocks(t *testing.T) {
	input := [][]byte{[]byte("0"), []byte("0"), []byte("1"), []byte("3")}

	t.Run("flink: a watermark behind every advancing record", func(t *testing.T) {
		cluster, err := flink.NewCluster(flink.ClusterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		cluster.Start()
		defer cluster.Stop()
		op := &recordingOperator{}
		sink := flink.NewRecordCollector()
		env := flink.NewEnvironment(cluster)
		env.AddSource("src", flink.SliceSource(input)).
			AssignTimestampsBounded("assign", clockEventTime, 0).
			KeyBy(clockKey).
			KeyedProcess("rec", func(flink.OperatorContext) (watermark.Operator, error) { return op, nil }).
			AddSink("sink", flink.CollectSink(sink))
		if _, err := env.Execute("clock"); err != nil {
			t.Fatal(err)
		}
		// The second record does not advance the watermark, so none
		// follows it; the source's end finalizes the watermark before
		// the flush.
		if got, want := op.calls(), "P0 W0 P0 P1 W1 P3 W3 Wend F"; got != want {
			t.Errorf("calls = %q, want %q", got, want)
		}
		if got, want := strings.Join(sink.Strings(), ", "), "after W0, after W1, after W3, after Wend, after F"; got != want {
			t.Errorf("emissions = %q, want %q", got, want)
		}
	})

	t.Run("apex: a watermark control event behind every streaming window", func(t *testing.T) {
		cluster, err := yarn.NewCluster(yarn.ClusterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		cluster.Start()
		defer cluster.Stop()
		op := &recordingOperator{}
		sink := apex.NewTupleCollector()
		app := apex.NewApplication("clock")
		app.AddInput("in", apex.SliceInput(input))
		app.AddOperator("assign", apex.AssignTimestamps(clockEventTime, 0))
		app.AddOperator("rec", apex.KeyedOp(func(apex.OperatorContext) (watermark.Operator, error) { return op, nil }))
		app.AddOutput("out", apex.CollectOutput(sink))
		app.AddStream("s0", "in", "assign")
		app.AddStream("s1", "assign", "rec")
		app.AddStream("s2", "rec", "out")
		app.SetStreamKeyed("s1", clockKey)
		stram, err := apex.Launch(cluster, app, apex.LaunchConfig{WindowTuples: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stram.Await(); err != nil {
			t.Fatal(err)
		}
		// The assigner's watermark is read once per processed window, so
		// W1 never exists: the second window carries the watermark to 3.
		if got, want := op.calls(), "P0 P0 W0 P1 P3 W3 Wend F"; got != want {
			t.Errorf("calls = %q, want %q", got, want)
		}
		// What OnWatermark emits publishes right behind its control
		// event, ahead of the next streaming window's tuples.
		if got, want := strings.Join(sink.Strings(), ", "), "after W0, after W3, after Wend, after F"; got != want {
			t.Errorf("emissions = %q, want %q", got, want)
		}
	})

	t.Run("spark: the lineage minimum once per micro-batch, flush on the drain pass", func(t *testing.T) {
		cluster, err := spark.NewCluster(spark.ClusterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		cluster.Start()
		defer cluster.Stop()
		ssc, err := spark.NewStreamingContext(cluster, spark.Config{})
		if err != nil {
			t.Fatal(err)
		}
		op := &recordingOperator{}
		var emitted []string
		ssc.SliceStream(input, 2).
			AssignTimestampsBounded(clockEventTime, 0).
			Stateful("rec", func(int, func(time.Duration)) (watermark.Operator, error) { return op, nil }).
			ForeachRecord("collect", func(rec []byte) error {
				emitted = append(emitted, string(rec))
				return nil
			})
		if _, err := ssc.RunBounded(); err != nil {
			t.Fatal(err)
		}
		// No end-of-time watermark: the drain pass calls Flush alone.
		if got, want := op.calls(), "P0 P0 W0 P1 P3 W3 F"; got != want {
			t.Errorf("calls = %q, want %q", got, want)
		}
		if got, want := strings.Join(emitted, ", "), "after W0, after W3, after F"; got != want {
			t.Errorf("emissions = %q, want %q", got, want)
		}
	})
}
