package flink

import (
	"errors"
	"fmt"
	"time"

	"beambench/internal/broker"
)

// _sourceIdlePoll is how long a Kafka source subtask waits for new data
// before re-checking whether the topic is complete.
const _sourceIdlePoll = 20 * time.Millisecond

// KafkaSource returns a source factory that reads a topic from the
// broker until target records have been appended to it in total and
// every assigned partition is drained — the end-of-input contract that
// lets the same source terminate correctly whether the benchmark
// preloads the input topic or streams into it while the job runs
// (Section III-A2 of the paper covers the preload case).
//
// A target <= 0 degrades to a bounded snapshot of the topic's contents
// at subtask start, for direct engine-API use outside the harness;
// records appended after the snapshot are ignored.
//
// Topic partitions are distributed over source subtasks round-robin;
// with one input partition (the paper's configuration) only subtask 0
// receives data and the others finish immediately.
func KafkaSource(b *broker.Broker, topic string, target int64) SourceFactory {
	return func(ctx OperatorContext) (Source, error) {
		return &kafkaSource{b: b, topic: topic, target: target, ctx: ctx}, nil
	}
}

type kafkaSource struct {
	b      *broker.Broker
	topic  string
	target int64
	ctx    OperatorContext
}

// Run consumes the subtask's share of the partitions via blocking polls
// until the end-of-input contract (broker.EndOfInput) is met, emitting
// the record values. Before every poll — where the subtask may wait for
// input — it ships what the chain has buffered for downstream tasks.
func (s *kafkaSource) Run(out Collector) error {
	consumer, eoi, err := broker.OpenShare(s.b, s.topic, broker.ConsumerConfig{},
		s.ctx.SubtaskIndex(), s.ctx.Parallelism(), s.target)
	if err != nil {
		return fmt.Errorf("flink: kafka source: %w", err)
	}
	if eoi.Empty() {
		return nil
	}
	idle := func() {}
	if sc, ok := s.ctx.(*subtaskContext); ok {
		idle = sc.idle
	}
	for {
		idle()
		recs, err := consumer.PollWait(_sourceIdlePoll)
		if err != nil {
			return fmt.Errorf("flink: kafka source: %w", err)
		}
		for _, r := range recs {
			if !eoi.Admit(r) {
				continue // produced after the bounded snapshot
			}
			if err := out.Collect(r.Value); err != nil {
				return err
			}
		}
		done, err := eoi.Complete(consumer, len(recs) == 0)
		if err != nil {
			return fmt.Errorf("flink: kafka source: %w", err)
		}
		if done {
			return nil
		}
	}
}

// KafkaSink returns a sink factory writing record values to a topic.
// Each subtask owns one producer configured with cfg; the paper's native
// jobs use the default batching producer, while the Beam-on-Apex runner
// configures BatchSize 1 (synchronous per-record sends).
func KafkaSink(b *broker.Broker, topic string, cfg broker.ProducerConfig) SinkFactory {
	return func(ctx OperatorContext) (Sink, error) {
		if _, err := b.Partitions(topic); err != nil {
			return nil, fmt.Errorf("flink: kafka sink: %w", err)
		}
		producer, err := b.NewProducer(cfg)
		if err != nil {
			return nil, fmt.Errorf("flink: kafka sink: %w", err)
		}
		return &kafkaSink{producer: producer, topic: topic}, nil
	}
}

type kafkaSink struct {
	producer *broker.Producer
	topic    string
}

func (s *kafkaSink) Invoke(rec []byte) error {
	if err := s.producer.Send(s.topic, nil, rec); err != nil {
		return fmt.Errorf("flink: kafka sink: %w", err)
	}
	return nil
}

func (s *kafkaSink) Close() error {
	if err := s.producer.Close(); err != nil {
		return fmt.Errorf("flink: kafka sink close: %w", err)
	}
	return nil
}

// SliceSource returns a source factory emitting the given records from
// subtask 0, for tests and examples.
func SliceSource(records [][]byte) SourceFactory {
	return func(ctx OperatorContext) (Source, error) {
		if ctx.SubtaskIndex() != 0 {
			return sliceSource(nil), nil
		}
		return sliceSource(records), nil
	}
}

type sliceSource [][]byte

func (s sliceSource) Run(out Collector) error {
	for _, rec := range s {
		if err := out.Collect(rec); err != nil {
			return err
		}
	}
	return nil
}

// CollectSink returns a sink factory that appends records to a shared
// thread-safe collector, for tests and examples.
func CollectSink(dst *RecordCollector) SinkFactory {
	if dst == nil {
		return func(OperatorContext) (Sink, error) {
			return nil, errors.New("flink: collect sink: nil collector")
		}
	}
	return func(ctx OperatorContext) (Sink, error) {
		return dst, nil
	}
}
