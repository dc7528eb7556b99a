package spark

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"beambench/internal/broker"
)

func newTestCluster(t *testing.T, cfg ClusterConfig) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

func newContext(t *testing.T, c *Cluster, cfg Config) *StreamingContext {
	t.Helper()
	ssc, err := NewStreamingContext(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ssc
}

func loadTopic(t *testing.T, b *broker.Broker, topic string, n int) [][]byte {
	t.Helper()
	if err := b.CreateTopic(topic, broker.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	p, err := b.NewProducer(broker.ProducerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	values := make([][]byte, n)
	for i := range n {
		values[i] = []byte(fmt.Sprintf("rec-%05d", i))
		if err := p.Send(topic, nil, values[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	return values
}

func topicValues(t *testing.T, b *broker.Broker, topic string) [][]byte {
	t.Helper()
	c, err := b.NewConsumer(broker.ConsumerConfig{MaxPollRecords: 1000000})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AssignAll(topic); err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for {
		recs, err := c.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			return out
		}
		for _, r := range recs {
			out = append(out, r.Value)
		}
	}
}

// collector gathers output records thread-safely.
type collector struct {
	mu   sync.Mutex
	recs [][]byte
}

func (c *collector) add(rec []byte) error {
	cp := make([]byte, len(rec))
	copy(cp, rec)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, cp)
	return nil
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.recs)
}

func TestConfigValidation(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{})
	tests := []struct {
		name string
		cfg  Config
	}{
		{name: "negative parallelism", cfg: Config{DefaultParallelism: -1}},
		{name: "negative rate", cfg: Config{MaxRatePerPartition: -1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewStreamingContext(c, tt.cfg); err == nil {
				t.Error("bad config accepted")
			}
		})
	}
	ssc := newContext(t, c, Config{})
	if ssc.DefaultParallelism() != 1 {
		t.Errorf("default parallelism = %d, want 1", ssc.DefaultParallelism())
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{Executors: -1}); err == nil {
		t.Error("negative executors accepted")
	}
	c, err := NewCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalCores() != 16 {
		t.Errorf("default cores = %d, want 16", c.TotalCores())
	}
}

func TestBoundedIdentity(t *testing.T) {
	b := broker.New()
	input := loadTopic(t, b, "in", 1000)
	if err := b.CreateTopic("out", broker.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	cluster := newTestCluster(t, ClusterConfig{})
	ssc := newContext(t, cluster, Config{MaxRatePerPartition: 300})
	ssc.KafkaDirectStream(b, "in", 0).SaveToKafka("out", b, "out", broker.ProducerConfig{})
	m, err := ssc.RunBounded()
	if err != nil {
		t.Fatal(err)
	}
	// 1000 records at 300/batch: 4 batches.
	if m.Batches != 4 {
		t.Errorf("Batches = %d, want 4", m.Batches)
	}
	if m.RecordsIn != 1000 || m.RecordsOut != 1000 {
		t.Errorf("records in/out = %d/%d, want 1000/1000", m.RecordsIn, m.RecordsOut)
	}
	got := topicValues(t, b, "out")
	if len(got) != len(input) {
		t.Fatalf("output has %d records, want %d", len(got), len(input))
	}
	for i := range input {
		if !bytes.Equal(got[i], input[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], input[i])
		}
	}
}

func TestTransformationChain(t *testing.T) {
	b := broker.New()
	loadTopic(t, b, "in", 100)
	cluster := newTestCluster(t, ClusterConfig{})
	ssc := newContext(t, cluster, Config{})
	out := &collector{}
	ssc.KafkaDirectStream(b, "in", 0).
		Filter(func(rec []byte) bool { return rec[len(rec)-1]%2 == 0 }).
		Map(bytes.ToUpper).
		FlatMap(func(rec []byte, emit func([]byte)) {
			emit(rec)
			emit(rec)
		}).
		ForeachRecord("collect", out.add)
	m, err := ssc.RunBounded()
	if err != nil {
		t.Fatal(err)
	}
	if out.len() != 100 {
		t.Errorf("collected %d records, want 100 (50 evens doubled)", out.len())
	}
	if m.RecordsOut != 100 {
		t.Errorf("RecordsOut = %d, want 100", m.RecordsOut)
	}
}

// TestNarrowStageErrorFailsTheRun: a record error in a narrow stage
// fails the task, the batch and RunBounded — also when it travels back
// through a native FlatMap, whose own emit cannot report it.
func TestNarrowStageErrorFailsTheRun(t *testing.T) {
	b := broker.New()
	loadTopic(t, b, "in", 10)
	boom := errors.New("boom")
	failing := func(TaskContext) (func([]byte, func([]byte) error) error, error) {
		return func([]byte, func([]byte) error) error { return boom }, nil
	}
	for name, build := range map[string]func(*DStream) *DStream{
		"direct": func(ds *DStream) *DStream { return ds.Transform(failing) },
		"behind FlatMap": func(ds *DStream) *DStream {
			return ds.FlatMap(func(rec []byte, emit func([]byte)) { emit(rec) }).Transform(failing)
		},
		"behind Map": func(ds *DStream) *DStream { return ds.Map(bytes.ToUpper).Transform(failing) },
	} {
		ssc := newContext(t, newTestCluster(t, ClusterConfig{}), Config{})
		out := &collector{}
		build(ssc.KafkaDirectStream(b, "in", 0)).ForeachRecord("collect", out.add)
		if _, err := ssc.RunBounded(); !errors.Is(err, boom) {
			t.Errorf("%s: RunBounded = %v, want the stage's error", name, err)
		}
		if out.len() != 0 {
			t.Errorf("%s: %d records reached the output of a failed batch", name, out.len())
		}
	}
}

func TestSampleFractionAndDeterminism(t *testing.T) {
	b := broker.New()
	loadTopic(t, b, "in", 10_000)
	run := func() int {
		cluster := newTestCluster(t, ClusterConfig{})
		ssc := newContext(t, cluster, Config{})
		out := &collector{}
		ssc.KafkaDirectStream(b, "in", 0).Sample(0.4, 7).ForeachRecord("c", out.add)
		if _, err := ssc.RunBounded(); err != nil {
			t.Fatal(err)
		}
		return out.len()
	}
	n1 := run()
	n2 := run()
	if n1 != n2 {
		t.Errorf("sample not deterministic: %d vs %d", n1, n2)
	}
	ratio := float64(n1) / 10_000
	if ratio < 0.35 || ratio > 0.45 {
		t.Errorf("sample ratio %v, want ~0.4", ratio)
	}
}

func TestRepartitionSplitsWork(t *testing.T) {
	b := broker.New()
	loadTopic(t, b, "in", 90)
	cluster := newTestCluster(t, ClusterConfig{})
	ssc := newContext(t, cluster, Config{DefaultParallelism: 3})
	var mu sync.Mutex
	partsSeen := make(map[int]int)
	out := &collector{}
	ssc.KafkaDirectStream(b, "in", 0).
		RepartitionDefault().
		Transform(func(task TaskContext) (func([]byte, func([]byte) error) error, error) {
			return func(rec []byte, emit func([]byte) error) error {
				mu.Lock()
				partsSeen[task.Partition]++
				mu.Unlock()
				return emit(rec)
			}, nil
		}).
		ForeachRecord("c", out.add)
	if _, err := ssc.RunBounded(); err != nil {
		t.Fatal(err)
	}
	if out.len() != 90 {
		t.Errorf("collected %d, want 90", out.len())
	}
	if len(partsSeen) != 3 {
		t.Errorf("records in %d partitions, want 3: %v", len(partsSeen), partsSeen)
	}
	for p, n := range partsSeen {
		if n != 30 {
			t.Errorf("partition %d processed %d records, want 30", p, n)
		}
	}
}

func TestPrecheckErrors(t *testing.T) {
	b := broker.New()
	loadTopic(t, b, "in", 1)
	cluster := newTestCluster(t, ClusterConfig{})

	t.Run("no input", func(t *testing.T) {
		ssc := newContext(t, cluster, Config{})
		if _, err := ssc.RunBounded(); err == nil {
			t.Error("no-input context ran")
		}
	})
	t.Run("no output", func(t *testing.T) {
		ssc := newContext(t, cluster, Config{})
		ssc.KafkaDirectStream(b, "in", 0)
		if _, err := ssc.RunBounded(); err == nil {
			t.Error("no-output context ran")
		}
	})
	t.Run("stopped cluster", func(t *testing.T) {
		stopped, err := NewCluster(ClusterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ssc, err := NewStreamingContext(stopped, Config{})
		if err != nil {
			t.Fatal(err)
		}
		out := &collector{}
		ssc.KafkaDirectStream(b, "in", 0).ForeachRecord("c", out.add)
		if _, err := ssc.RunBounded(); !errors.Is(err, ErrClusterStopped) {
			t.Errorf("RunBounded = %v, want ErrClusterStopped", err)
		}
	})
	t.Run("unknown topic", func(t *testing.T) {
		ssc := newContext(t, cluster, Config{})
		out := &collector{}
		ssc.KafkaDirectStream(b, "missing", 0).ForeachRecord("c", out.add)
		if _, err := ssc.RunBounded(); err == nil {
			t.Error("unknown topic accepted")
		}
	})
	t.Run("nil transforms", func(t *testing.T) {
		ssc := newContext(t, cluster, Config{})
		out := &collector{}
		ssc.KafkaDirectStream(b, "in", 0).Map(nil).ForeachRecord("c", out.add)
		if _, err := ssc.RunBounded(); err == nil {
			t.Error("nil map accepted")
		}
	})
	t.Run("double run", func(t *testing.T) {
		ssc := newContext(t, cluster, Config{})
		out := &collector{}
		ssc.KafkaDirectStream(b, "in", 0).ForeachRecord("c", out.add)
		if _, err := ssc.RunBounded(); err != nil {
			t.Fatal(err)
		}
		if _, err := ssc.RunBounded(); !errors.Is(err, ErrContextState) {
			t.Errorf("second run = %v, want ErrContextState", err)
		}
	})
}

func TestOutputErrorFailsRun(t *testing.T) {
	b := broker.New()
	loadTopic(t, b, "in", 10)
	cluster := newTestCluster(t, ClusterConfig{})
	ssc := newContext(t, cluster, Config{})
	boom := errors.New("boom")
	ssc.KafkaDirectStream(b, "in", 0).ForeachRecord("c", func(rec []byte) error {
		if bytes.HasSuffix(rec, []byte("5")) {
			return boom
		}
		return nil
	})
	if _, err := ssc.RunBounded(); !errors.Is(err, boom) {
		t.Errorf("RunBounded = %v, want boom", err)
	}
}

func TestSaveToKafkaUnknownTopicFails(t *testing.T) {
	b := broker.New()
	loadTopic(t, b, "in", 5)
	cluster := newTestCluster(t, ClusterConfig{})
	ssc := newContext(t, cluster, Config{})
	ssc.KafkaDirectStream(b, "in", 0).SaveToKafka("out", b, "missing", broker.ProducerConfig{})
	if _, err := ssc.RunBounded(); err == nil {
		t.Error("missing output topic accepted")
	}
}

func TestMultipleOutputsRecompute(t *testing.T) {
	b := broker.New()
	loadTopic(t, b, "in", 50)
	cluster := newTestCluster(t, ClusterConfig{})
	ssc := newContext(t, cluster, Config{})
	evens := &collector{}
	all := &collector{}
	base := ssc.KafkaDirectStream(b, "in", 0)
	base.Filter(func(rec []byte) bool { return rec[len(rec)-1]%2 == 0 }).ForeachRecord("evens", evens.add)
	base.ForeachRecord("all", all.add)
	if _, err := ssc.RunBounded(); err != nil {
		t.Fatal(err)
	}
	if evens.len() != 25 || all.len() != 50 {
		t.Errorf("outputs = %d, %d; want 25, 50", evens.len(), all.len())
	}
}

func TestKafkaDirectStreamIgnoresLateRecords(t *testing.T) {
	// Records produced after the bounded snapshot (taken on the first
	// batch) must not be read by the bounded stream.
	b := broker.New()
	loadTopic(t, b, "in", 30)
	src := &kafkaDirect{b: b, topic: "in", partitions: 1, maxPerPart: 10}

	parts, remaining, err := src.nextBatch(0)
	if err != nil {
		t.Fatal(err)
	}
	if countRecords(parts) != 10 || !remaining {
		t.Fatalf("first batch = %d records, remaining=%v; want 10, true", countRecords(parts), remaining)
	}

	// Late arrivals after the snapshot.
	p, err := b.NewProducer(broker.ProducerConfig{BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	for range 5 {
		if err := p.Send("in", nil, []byte("late")); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	total := 10
	for batch := int64(1); remaining; batch++ {
		parts, remaining, err = src.nextBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, part := range parts {
			for _, rec := range part {
				if bytes.Equal(rec, []byte("late")) {
					t.Fatal("bounded stream read a late record")
				}
				total++
			}
		}
	}
	if total != 30 {
		t.Errorf("bounded stream read %d records, want 30", total)
	}
}
