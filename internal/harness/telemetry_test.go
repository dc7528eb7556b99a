package harness

import (
	"reflect"
	"testing"
	"time"

	"beambench/internal/broker"
	"beambench/internal/obs"
	"beambench/internal/queries"
)

// TestTracedRunTelemetryContract pins what a traced run records live:
// the exact gauge-summary name set of the cell (consumer lag per
// benchmark partition, one rate series per collector stage, one
// watermark-lag series per operator gauge) and the scoped counter track
// of the input topic's consumer lag, which the bench reads back as
// harness.end_lag_records.
func TestTracedRunTelemetryContract(t *testing.T) {
	tr := obs.NewTracer(1 << 16)
	cfg := fastConfig()
	cfg.Records = 300
	cfg.Runs = 1
	cfg.Parallelisms = []int{1}
	cfg.CollectMetrics = true
	cfg.Trace = tr
	cfg.GaugeInterval = time.Millisecond
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	setup := Setup{System: SystemFlink, API: APIBeam, Query: queries.WindowedCount, Parallelism: 1}
	results, err := r.RunCell(setup)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := BuildReport(r.Config(), results)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 {
		t.Fatalf("report has %d cells, want 1", len(rep.Cells))
	}

	var got []string
	for _, g := range rep.Cells[0].Gauges {
		got = append(got, g.Name)
	}
	want := []string{
		"consumer-lag/input/p0",
		"consumer-lag/output/p0",
		"rate/Flat Map",
		"rate/GroupByKey",
		"rate/KafkaIO.Write output",
		"rate/PTransformTranslation.UnknownRawPTransform",
		"rate/ParDoTranslation.RawParDo",
		"watermark-lag/Flat Map",
		"watermark-lag/GroupByKey",
		"watermark-lag/KafkaIO.Write output",
		"watermark-lag/PTransformTranslation.UnknownRawPTransform",
		"watermark-lag/ParDoTranslation.RawParDo",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("gauge names\n got %q\nwant %q", got, want)
	}

	track := cellKey(setup) + "/run0/consumer-lag/input/p0"
	found := false
	for _, ev := range tr.Events() {
		if ev.Phase == obs.PhaseCounter && ev.Track == track {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no counter event on %q", track)
	}
}

// TestConsumerLagPerPartitionP2: with a two-partition input topic,
// interleaved appends and partial consumption, the broker-derived lag
// the monitor and the plane both read is correct per partition, not as
// an aggregate; the absent output topic yields no samples.
func TestConsumerLagPerPartitionP2(t *testing.T) {
	b := broker.New()
	defer b.Close()
	if err := b.CreateTopic(inputTopic, broker.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	prod, err := b.NewProducer(broker.ProducerConfig{
		// Route by key byte so the interleaving is explicit.
		Partitioner: func(key []byte, partitions int) int { return int(key[0]) % partitions },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Interleave appends: 6 records to p0, 4 to p1.
	for i := 0; i < 10; i++ {
		part := i % 2
		if i >= 8 {
			part = 0 // the tail goes to p0 only
		}
		if err := prod.Send(inputTopic, []byte{byte(part)}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := prod.Flush(); err != nil {
		t.Fatal(err)
	}

	// Two consumers, one per partition, drain different amounts:
	// p0 fetches 2 of its 6, p1 fetches all 4.
	c0, err := b.NewConsumer(broker.ConsumerConfig{MaxPollRecords: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c0.Assign(inputTopic, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Poll(); err != nil {
		t.Fatal(err)
	}
	c1, err := b.NewConsumer(broker.ConsumerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Assign(inputTopic, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Poll(); err != nil {
		t.Fatal(err)
	}

	got := consumerLagSamples(b)()
	want := []obs.LagSample{
		{Topic: inputTopic, Partition: 0, Lag: 4}, // 6 appended, 2 consumed
		{Topic: inputTopic, Partition: 1, Lag: 0}, // fully drained
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("consumer lag = %+v, want %+v", got, want)
	}
}
