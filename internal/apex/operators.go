package apex

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"beambench/internal/broker"
	"beambench/internal/watermark"
)

// _inputIdlePoll is how long a Kafka input waits for data before
// re-checking whether the topic is complete.
const _inputIdlePoll = 20 * time.Millisecond

// KafkaInput returns an input factory reading a topic from the broker
// until target records have been appended to it in total and every
// assigned partition is drained — the end-of-input contract that lets
// the same operator terminate correctly whether the benchmark preloads
// the input topic or streams into it while the application runs.
//
// A target <= 0 degrades to a bounded snapshot of the topic's contents
// at partition setup, for direct engine-API use outside the harness;
// records appended after the snapshot are ignored.
//
// Kafka partitions are distributed over operator partitions
// round-robin, Malhar-style.
func KafkaInput(b *broker.Broker, topic string, target int64) InputFactory {
	return func(ctx OperatorContext) (InputOperator, error) {
		consumer, eoi, err := broker.OpenShare(b, topic, broker.ConsumerConfig{},
			ctx.PartitionIndex(), ctx.PartitionCount(), target)
		if err != nil {
			return nil, fmt.Errorf("apex: kafka input: %w", err)
		}
		return &kafkaInput{consumer: consumer, eoi: eoi, done: eoi.Empty()}, nil
	}
}

type kafkaInput struct {
	consumer *broker.Consumer
	eoi      *broker.EndOfInput
	buffered []broker.Record
	idle     bool
	done     bool
}

func (k *kafkaInput) NextTuples(max int, emit func([]byte) error) (bool, error) {
	if k.done {
		return true, nil
	}
	if max <= 0 {
		return false, nil
	}
	if len(k.buffered) == 0 {
		recs, err := k.consumer.PollWait(_inputIdlePoll)
		if err != nil {
			return false, fmt.Errorf("apex: kafka input: %w", err)
		}
		k.buffered = recs
		k.idle = len(recs) == 0
	}
	n := min(max, len(k.buffered))
	for _, r := range k.buffered[:n] {
		if !k.eoi.Admit(r) {
			continue // appended after the bounded snapshot
		}
		if err := emit(r.Value); err != nil {
			return false, err
		}
	}
	k.buffered = k.buffered[n:]
	if len(k.buffered) == 0 {
		done, err := k.eoi.Complete(k.consumer, k.idle)
		if err != nil {
			return false, fmt.Errorf("apex: kafka input: %w", err)
		}
		k.done = done
	}
	return k.done, nil
}

func (k *kafkaInput) Teardown() error { return nil }

// KafkaOutput returns an output factory writing tuples to a topic. Each
// partition owns one producer; the producer flushes at streaming-window
// boundaries (EndWindow), which is the batched native output mode. A
// ProducerConfig with BatchSize 1 degrades it to synchronous per-tuple
// sends — the Beam runner's output mode.
func KafkaOutput(b *broker.Broker, topic string, cfg broker.ProducerConfig) OutputFactory {
	return func(ctx OperatorContext) (OutputOperator, error) {
		if _, err := b.Partitions(topic); err != nil {
			return nil, fmt.Errorf("apex: kafka output: %w", err)
		}
		producer, err := b.NewProducer(cfg)
		if err != nil {
			return nil, fmt.Errorf("apex: kafka output: %w", err)
		}
		return &kafkaOutput{producer: producer, topic: topic}, nil
	}
}

type kafkaOutput struct {
	producer *broker.Producer
	topic    string
}

func (k *kafkaOutput) Process(t []byte) error {
	return k.producer.Send(k.topic, nil, t)
}

func (k *kafkaOutput) EndWindow() error {
	return k.producer.Flush()
}

func (k *kafkaOutput) Teardown() error {
	return k.producer.Close()
}

// funcOperator adapts a process function to GenericOperator.
type funcOperator struct {
	fn func(tuple []byte, emit func([]byte) error) error
}

func (o *funcOperator) Process(t []byte, emit func([]byte) error) error {
	return o.fn(t, emit)
}

func (o *funcOperator) Teardown() error { return nil }

// PassThrough returns an operator that forwards every tuple unchanged
// (the identity query's processing step).
func PassThrough() GenericFactory {
	return func(OperatorContext) (GenericOperator, error) {
		return &funcOperator{fn: func(t []byte, emit func([]byte) error) error {
			return emit(t)
		}}, nil
	}
}

// MapOp returns an operator applying fn to every tuple.
func MapOp(fn func([]byte) []byte) GenericFactory {
	if fn == nil {
		return failingGeneric(errors.New("apex: nil map function"))
	}
	return func(OperatorContext) (GenericOperator, error) {
		return &funcOperator{fn: func(t []byte, emit func([]byte) error) error {
			return emit(fn(t))
		}}, nil
	}
}

// FilterOp returns an operator keeping tuples matching fn.
func FilterOp(fn func([]byte) bool) GenericFactory {
	if fn == nil {
		return failingGeneric(errors.New("apex: nil filter function"))
	}
	return func(OperatorContext) (GenericOperator, error) {
		return &funcOperator{fn: func(t []byte, emit func([]byte) error) error {
			if fn(t) {
				return emit(t)
			}
			return nil
		}}, nil
	}
}

// FlatMapOp returns an operator emitting zero or more tuples per input.
func FlatMapOp(fn func(tuple []byte, emit func([]byte) error) error) GenericFactory {
	if fn == nil {
		return failingGeneric(errors.New("apex: nil flatMap function"))
	}
	return func(OperatorContext) (GenericOperator, error) {
		return &funcOperator{fn: fn}, nil
	}
}

// ProcessOp returns an operator built per partition, the hook the Beam
// runner uses to interpose DoFn invocation and coder costs.
func ProcessOp(factory func(ctx OperatorContext) (func(tuple []byte, emit func([]byte) error) error, error)) GenericFactory {
	if factory == nil {
		return failingGeneric(errors.New("apex: nil process factory"))
	}
	return func(ctx OperatorContext) (GenericOperator, error) {
		fn, err := factory(ctx)
		if err != nil {
			return nil, err
		}
		return &funcOperator{fn: fn}, nil
	}
}

// KeyedOp deploys a keyed stateful operator on the engine's firing
// clock: the runtime hands every tuple to Process, the partition's
// combined input watermark — the minimum over all upstream senders'
// control events — to OnWatermark whenever a control event advances
// it, and calls Flush when the input streams end (all upstream
// partitions finished: the broker.EndOfInput contract propagated
// through the DAG). Whatever the operator emits joins the partition's
// open streaming window, which publishes at its boundary — or at once
// behind the watermark control event that released the emissions, so
// they do not wait on tuple traffic that may have paused.
//
// Route the input stream with Application.SetStreamKeyed, so every
// key's tuples reach one partition, and place an AssignTimestamps
// operator upstream. Because the watermark is combined min-over-senders
// before delivery, a keyed merge of several racing upstream partitions
// needs no conservative fallback: nothing fires before every sender's
// watermark has passed it.
func KeyedOp(factory func(ctx OperatorContext) (watermark.Operator, error)) GenericFactory {
	if factory == nil {
		return failingGeneric(errors.New("apex: nil keyed operator factory"))
	}
	return func(ctx OperatorContext) (GenericOperator, error) {
		op, err := factory(ctx)
		if err != nil {
			return nil, err
		}
		return keyedOperator{op}, nil
	}
}

// keyedOperator is a watermark.Operator as a GenericOperator; the
// runtime finds OnWatermark and Flush on it by asserting the contract.
type keyedOperator struct{ watermark.Operator }

func (keyedOperator) Teardown() error { return nil }

func failingGeneric(err error) GenericFactory {
	return func(OperatorContext) (GenericOperator, error) { return nil, err }
}

// SliceInput returns an input factory emitting the given tuples from
// partition 0, for tests and examples.
func SliceInput(tuples [][]byte) InputFactory {
	return func(ctx OperatorContext) (InputOperator, error) {
		if ctx.PartitionIndex() != 0 {
			return &sliceInput{}, nil
		}
		return &sliceInput{tuples: tuples}, nil
	}
}

type sliceInput struct {
	tuples [][]byte
	pos    int
}

func (s *sliceInput) NextTuples(max int, emit func([]byte) error) (bool, error) {
	n := min(max, len(s.tuples)-s.pos)
	for _, t := range s.tuples[s.pos : s.pos+n] {
		if err := emit(t); err != nil {
			return false, err
		}
	}
	s.pos += n
	return s.pos >= len(s.tuples), nil
}

func (s *sliceInput) Teardown() error { return nil }

// TupleCollector is a thread-safe tuple buffer usable as an output
// operator from multiple partitions, for tests and examples.
type TupleCollector struct {
	mu     sync.Mutex
	tuples [][]byte
	// windowEnds counts EndWindow calls, for window accounting tests.
	windowEnds int
}

// NewTupleCollector returns an empty collector.
func NewTupleCollector() *TupleCollector { return &TupleCollector{} }

// CollectOutput returns an output factory appending to the collector.
func CollectOutput(dst *TupleCollector) OutputFactory {
	return func(OperatorContext) (OutputOperator, error) {
		if dst == nil {
			return nil, errors.New("apex: nil tuple collector")
		}
		return dst, nil
	}
}

// Process stores the tuple; tuples are immutable once emitted.
func (c *TupleCollector) Process(t []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tuples = append(c.tuples, t)
	return nil
}

// EndWindow counts window boundaries.
func (c *TupleCollector) EndWindow() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.windowEnds++
	return nil
}

// Teardown implements OutputOperator.
func (c *TupleCollector) Teardown() error { return nil }

// Len reports the number of collected tuples.
func (c *TupleCollector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.tuples)
}

// WindowEnds reports how many EndWindow calls were observed.
func (c *TupleCollector) WindowEnds() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.windowEnds
}

// Strings returns the collected tuples as strings in arrival order.
func (c *TupleCollector) Strings() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.tuples))
	for i, t := range c.tuples {
		out[i] = string(t)
	}
	return out
}
