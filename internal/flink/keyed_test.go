package flink

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"beambench/internal/watermark"
)

func TestKeyByRoutesEqualKeysToOneSubtask(t *testing.T) {
	cluster := newTestCluster(t, ClusterConfig{})
	env := NewEnvironment(cluster)
	sink := NewRecordCollector()

	var input [][]byte
	for i := range 120 {
		input = append(input, []byte(fmt.Sprintf("key%d:payload%d", i%6, i)))
	}
	keyOf := func(rec []byte) ([]byte, error) {
		idx := strings.IndexByte(string(rec), ':')
		return rec[:idx], nil
	}

	env.AddSource("src", SliceSource(input)).
		KeyBy(keyOf).
		Process("tag", func(ctx OperatorContext) (ProcessFunc, error) {
			return func(rec []byte, out Collector) error {
				key, _ := keyOf(rec)
				return out.Collect([]byte(fmt.Sprintf("%s@%d", key, ctx.SubtaskIndex())))
			}, nil
		}).SetParallelism(3).
		AddSink("sink", CollectSink(sink))
	if _, err := env.Execute("keyby"); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != 120 {
		t.Fatalf("collected %d records, want 120", sink.Len())
	}
	subtaskOf := make(map[string]string)
	for _, s := range sink.Strings() {
		parts := strings.SplitN(s, "@", 2)
		if prev, ok := subtaskOf[parts[0]]; ok && prev != parts[1] {
			t.Fatalf("key %q processed by subtasks %s and %s", parts[0], prev, parts[1])
		}
		subtaskOf[parts[0]] = parts[1]
	}
	if len(subtaskOf) != 6 {
		t.Errorf("saw %d keys, want 6", len(subtaskOf))
	}
}

func TestKeyByNilSelectorRejected(t *testing.T) {
	cluster := newTestCluster(t, ClusterConfig{})
	env := NewEnvironment(cluster)
	sink := NewRecordCollector()
	env.AddSource("src", SliceSource(records(1))).
		KeyBy(nil).
		Map("id", func(r []byte) []byte { return r }).
		AddSink("sink", CollectSink(sink))
	if _, err := env.Execute("nilkey"); err == nil {
		t.Error("nil key selector accepted")
	}
}

func TestKeyByBreaksChain(t *testing.T) {
	cluster := newTestCluster(t, ClusterConfig{})
	env := NewEnvironment(cluster)
	sink := NewRecordCollector()
	env.AddSource("src", SliceSource(records(10))).
		KeyBy(func(rec []byte) ([]byte, error) { return rec, nil }).
		Map("id", func(r []byte) []byte { return r }).
		AddSink("sink", CollectSink(sink))
	res, err := env.Execute("keyby-chain")
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks != 2 {
		t.Errorf("Tasks = %d, want 2 (KeyBy breaks the chain)", res.Tasks)
	}
}

func TestKeySelectorErrorFailsJob(t *testing.T) {
	cluster := newTestCluster(t, ClusterConfig{})
	env := NewEnvironment(cluster)
	sink := NewRecordCollector()
	env.AddSource("src", SliceSource(records(10))).
		KeyBy(func(rec []byte) ([]byte, error) { return nil, fmt.Errorf("bad key") }).
		Map("id", func(r []byte) []byte { return r }).
		AddSink("sink", CollectSink(sink))
	if _, err := env.Execute("badkey"); err == nil {
		t.Error("key selector error not surfaced")
	}
}

// bufferOperator is a keyed operator that holds every record back
// until Flush, where render turns the buffer into emissions.
type bufferOperator struct {
	kept   [][]byte
	render func(kept [][]byte) [][]byte
}

func (o *bufferOperator) Process(rec []byte, _ func([]byte) error) error {
	o.kept = append(o.kept, rec)
	return nil
}

func (o *bufferOperator) OnWatermark(time.Time, func([]byte) error) error { return nil }

func (o *bufferOperator) Flush(emit func([]byte) error) error {
	for _, rec := range o.render(o.kept) {
		if err := emit(rec); err != nil {
			return err
		}
	}
	return nil
}

func bufferFactory(render func(kept [][]byte) [][]byte) KeyedFactory {
	return func(OperatorContext) (watermark.Operator, error) {
		return &bufferOperator{render: render}, nil
	}
}

func TestKeyedProcessFlushesAtEndOfInput(t *testing.T) {
	cluster := newTestCluster(t, ClusterConfig{})
	env := NewEnvironment(cluster)
	sink := NewRecordCollector()
	env.AddSource("src", SliceSource(records(25))).
		KeyedProcess("count", bufferFactory(func(kept [][]byte) [][]byte {
			return [][]byte{[]byte(fmt.Sprintf("count=%d", len(kept)))}
		})).
		AddSink("sink", CollectSink(sink))
	if _, err := env.Execute("flush"); err != nil {
		t.Fatal(err)
	}
	got := sink.Strings()
	if len(got) != 1 || got[0] != "count=25" {
		t.Errorf("flush output = %v, want [count=25]", got)
	}
}

func TestKeyedProcessChainedDownstreamSeesFlush(t *testing.T) {
	// The flush of an upstream keyed operator must pass through the
	// downstream operators of the same chain.
	cluster := newTestCluster(t, ClusterConfig{})
	env := NewEnvironment(cluster)
	sink := NewRecordCollector()
	env.AddSource("src", SliceSource(records(5))).
		KeyedProcess("buffer", bufferFactory(func(kept [][]byte) [][]byte { return kept })).
		Map("decorate", func(r []byte) []byte { return append([]byte("seen:"), r...) }).
		AddSink("sink", CollectSink(sink))
	if _, err := env.Execute("flush-chain"); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != 5 {
		t.Fatalf("collected %d, want 5", sink.Len())
	}
	for _, s := range sink.Strings() {
		if !strings.HasPrefix(s, "seen:") {
			t.Errorf("flush emission skipped downstream operator: %q", s)
		}
	}
}

func TestKeyedProcessNilFactory(t *testing.T) {
	cluster := newTestCluster(t, ClusterConfig{})
	env := NewEnvironment(cluster)
	sink := NewRecordCollector()
	env.AddSource("src", SliceSource(records(1))).
		KeyedProcess("bad", nil).
		AddSink("sink", CollectSink(sink))
	if _, err := env.Execute("nilflush"); err == nil {
		t.Error("nil keyed factory accepted")
	}
}
