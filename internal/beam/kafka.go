package beam

import (
	"errors"
	"fmt"
	"time"

	"beambench/internal/broker"
)

// KafkaRecord is the raw element produced by KafkaRead: the consumed
// payload together with its broker metadata. WithoutMetadata strips the
// metadata, which is the first RawParDo the paper identifies in the Beam
// execution plan (Figure 13).
type KafkaRecord struct {
	Topic     string
	Partition int
	Offset    int64
	Timestamp time.Time
	Key       []byte
	Value     []byte
}

// KafkaReadConfig is the connector configuration runners translate.
type KafkaReadConfig struct {
	Broker *broker.Broker
	Topic  string
}

// KafkaWriteConfig is the sink configuration runners translate.
type KafkaWriteConfig struct {
	Broker   *broker.Broker
	Topic    string
	Producer broker.ProducerConfig
}

// KafkaRead reads a topic and returns an unbounded collection of
// KafkaRecord elements, the analogue of KafkaIO.read().
func KafkaRead(p *Pipeline, b *broker.Broker, topic string) PCollection {
	if b == nil {
		p.fail(errors.New("beam: KafkaRead: nil broker"))
	}
	if topic == "" {
		p.fail(errors.New("beam: KafkaRead: empty topic"))
	}
	t := p.addTransform(&Transform{
		Name:   "KafkaIO.Read " + topic,
		Kind:   KindKafkaRead,
		Config: KafkaReadConfig{Broker: b, Topic: topic},
	})
	out := p.newPCollection(KafkaRecordCoder{}, false /* unbounded */, DefaultWindowing(), t)
	t.Output = out
	return out
}

// WithoutMetadata drops the broker metadata from a KafkaRecord
// collection, yielding KV pairs — the withoutMetadata() call of KafkaIO.
func WithoutMetadata(p *Pipeline, in PCollection) PCollection {
	return ParDo(p, "WithoutMetadata", withoutMetadataFn{}, in, WithCoder(bytesKVCoder))
}

// bytesKVCoder codes the KV pairs WithoutMetadata yields.
var bytesKVCoder = KVCoder{Key: BytesCoder{}, Value: BytesCoder{}}

// withoutMetadataFn is the DoFn of WithoutMetadata.
type withoutMetadataFn struct{}

// ProcessElement implements DoFn.
func (withoutMetadataFn) ProcessElement(ctx Context, elem any, emit Emitter) error {
	r, ok := elem.(KafkaRecord)
	if !ok {
		return fmt.Errorf("beam: WithoutMetadata: element %T is not a KafkaRecord", elem)
	}
	return emit(KV{Key: r.Key, Value: r.Value})
}

// FrameRewrite implements FrameFn for KafkaRecord in and KV<bytes,bytes>
// out. A KafkaRecord frame ends in its key and value laid out as a KV
// frame, so the output is that tail — unless the tail is not what
// Encode writes (a non-minimal length, bytes after the value), in which
// case the pair is encoded afresh.
func (withoutMetadataFn) FrameRewrite(in, out Coder) (func([]byte) ([]byte, error), bool) {
	if in != Coder(KafkaRecordCoder{}) || out != Coder(bytesKVCoder) {
		return nil, false
	}
	return func(frame []byte) ([]byte, error) {
		f, err := splitKafkaRecord(frame)
		if err != nil {
			return nil, err
		}
		if n := kvFrameLen(f.key, f.value); n != len(f.kv) {
			return appendKVFrame(make([]byte, 0, n), f.key, f.value), nil
		}
		return f.kv, nil
	}, true
}

// KafkaWrite writes a collection's elements to a topic, the analogue of
// KafkaIO.write(). Elements must be []byte (use a serializing ParDo
// upstream otherwise); runners expand the transform into a value
// serializer plus the sink itself, which is why Beam plans show one more
// operator than the native job (Figure 13).
func KafkaWrite(p *Pipeline, b *broker.Broker, topic string, in PCollection, producerCfg broker.ProducerConfig) {
	if b == nil {
		p.fail(errors.New("beam: KafkaWrite: nil broker"))
	}
	if topic == "" {
		p.fail(errors.New("beam: KafkaWrite: empty topic"))
	}
	if !in.Valid() {
		p.fail(errors.New("beam: KafkaWrite: invalid input"))
		return
	}
	p.addTransform(&Transform{
		Name:   "KafkaIO.Write " + topic,
		Kind:   KindKafkaWrite,
		Inputs: []PCollection{in},
		Config: KafkaWriteConfig{Broker: b, Topic: topic, Producer: producerCfg},
	})
}
