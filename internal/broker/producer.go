package broker

import (
	"fmt"
	"hash/fnv"
	"time"

	"beambench/internal/simcost"
)

// Acks is the producer acknowledgment level. It mirrors the Kafka
// producer's acks setting, which the paper's data sender exposes as a
// configuration parameter (Section III-A).
type Acks int

const (
	// AcksNone fires and forgets (acks=0).
	AcksNone Acks = iota + 1
	// AcksLeader waits for the leader append (acks=1).
	AcksLeader
	// AcksAll waits for full replication (acks=all); on this single-node
	// broker the latency model charges an extra round trip.
	AcksAll
)

// String returns the Kafka-style spelling of the level.
func (a Acks) String() string {
	switch a {
	case AcksNone:
		return "0"
	case AcksLeader:
		return "1"
	case AcksAll:
		return "all"
	default:
		return fmt.Sprintf("Acks(%d)", int(a))
	}
}

// Partitioner chooses a partition for a record.
type Partitioner func(key []byte, partitions int) int

// HashPartitioner assigns records with equal keys to equal partitions;
// records without a key round-robin is not possible statelessly, so
// keyless records go to partition 0.
func HashPartitioner(key []byte, partitions int) int {
	if partitions <= 1 || len(key) == 0 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write(key)
	return int(h.Sum32() % uint32(partitions))
}

// ProducerConfig controls batching and acknowledgment behaviour.
type ProducerConfig struct {
	// Acks is the acknowledgment level; defaults to AcksLeader.
	Acks Acks
	// BatchSize is the number of buffered records per topic-partition
	// that triggers a produce request; defaults to 500. A BatchSize of
	// 1 models a fully synchronous unbatched producer — the
	// configuration the Beam-on-Apex sink effectively runs with.
	BatchSize int
	// Linger bounds how long a partially filled batch may sit in the
	// buffer: a Send that finds records older than Linger flushes the
	// partition (like the Kafka producer's linger.ms combined with its
	// natural batching). Defaults to 5ms; negative disables
	// time-triggered flushing.
	Linger time.Duration
	// Partitioner defaults to HashPartitioner.
	Partitioner Partitioner
}

func (c *ProducerConfig) validate() error {
	if c.Acks == 0 {
		c.Acks = AcksLeader
	}
	if c.Acks < AcksNone || c.Acks > AcksAll {
		return fmt.Errorf("broker: invalid acks %d", c.Acks)
	}
	if c.BatchSize == 0 {
		c.BatchSize = 500
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("broker: negative batch size %d", c.BatchSize)
	}
	if c.Linger == 0 {
		c.Linger = 5 * time.Millisecond
	}
	if c.Partitioner == nil {
		c.Partitioner = HashPartitioner
	}
	return nil
}

// Producer buffers records per topic-partition and appends them to the
// broker in batches. A Producer is not safe for concurrent use; each
// producing goroutine owns its own (matching the meter discipline).
type Producer struct {
	b      *Broker
	cfg    ProducerConfig
	meter  *simcost.Meter
	bufs   map[topicPartition]*batch
	closed bool
}

// batch is the unflushed tail of one topic-partition. Its buffer is
// kept across flushes: the log copies the entries into its own chunks.
type batch struct {
	recs []storedRecord
	// oldestAt is when the first of recs was buffered, for linger.
	oldestAt time.Time
}

type topicPartition struct {
	topic string
	part  int
}

// NewProducer returns a producer bound to the broker.
func (b *Broker) NewProducer(cfg ProducerConfig) (*Producer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Producer{
		b:     b,
		cfg:   cfg,
		meter: b.sim.NewMeter(),
		bufs:  make(map[topicPartition]*batch),
	}, nil
}

// Send buffers one record with the broker clock as its CreateTime and
// flushes the affected partition batch when full. The clock is read
// once: the same instant is the CreateTime and the linger reference.
func (p *Producer) Send(topicName string, key, value []byte) error {
	now := p.b.now()
	return p.send(topicName, key, value, now, now)
}

// SendAt buffers one record with an explicit CreateTime timestamp.
// For LogAppendTime topics the broker overwrites it at append.
func (p *Producer) SendAt(topicName string, key, value []byte, ts time.Time) error {
	return p.send(topicName, key, value, ts, p.b.now())
}

// send takes key and value into the partition's batch. This is the one
// place a record's bytes are copied (see Record): callers such as
// cmd/datasender hand in a buffer they go on to overwrite.
func (p *Producer) send(topicName string, key, value []byte, ts, now time.Time) error {
	if p.closed {
		return ErrClosed
	}
	t, err := p.b.topic(topicName)
	if err != nil {
		return err
	}
	part := p.cfg.Partitioner(key, len(t.parts))
	if part < 0 || part >= len(t.parts) {
		return fmt.Errorf("%w: partitioner chose %d of %d", ErrUnknownPartition, part, len(t.parts))
	}
	tp := topicPartition{topic: topicName, part: part}
	bt := p.bufs[tp]
	if bt == nil {
		bt = &batch{}
		p.bufs[tp] = bt
	}
	if len(bt.recs) == 0 {
		bt.oldestAt = now
	}
	bt.recs = append(bt.recs, storedRecord{key: cloneBytes(key), value: cloneBytes(value), ts: ts})
	// A batch is due when full or when its oldest record has waited
	// longer than the configured linger.
	if len(bt.recs) >= p.cfg.BatchSize || (p.cfg.Linger >= 0 && now.Sub(bt.oldestAt) >= p.cfg.Linger) {
		return p.flushBatch(tp, bt)
	}
	return nil
}

// cloneBytes is the record path's one copy; nil stays nil.
func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	//beamvet:allow hotalloc the one copy of a record's bytes: the caller keeps its buffer, the log keeps this
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// Flush sends all buffered batches.
func (p *Producer) Flush() error {
	var firstErr error
	for tp, bt := range p.bufs {
		if err := p.flushBatch(tp, bt); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	p.meter.Flush()
	return firstErr
}

// Close flushes and marks the producer closed.
func (p *Producer) Close() error {
	if p.closed {
		return nil
	}
	err := p.Flush()
	p.closed = true
	return err
}

// flushBatch appends the batch to its partition. The batch is emptied
// whether or not the append succeeds; its buffer is reused.
func (p *Producer) flushBatch(tp topicPartition, bt *batch) error {
	recs := bt.recs
	if len(recs) == 0 {
		return nil
	}
	bt.recs = recs[:0]

	t, err := p.b.topic(tp.topic)
	if err != nil {
		return err
	}
	if t.cfg.Timestamps == LogAppendTime {
		now := p.b.now()
		for i := range recs {
			recs[i].ts = now
		}
	}
	// Charge the request before the append so the LogAppendTime
	// timestamps reflect the modeled network+broker latency.
	p.chargeProduce(len(recs))
	if _, err := t.parts[tp.part].append(recs); err != nil {
		return fmt.Errorf("broker: produce %s/%d: %w", tp.topic, tp.part, err)
	}
	return nil
}

// chargeProduce applies the cost model for one produce request of n
// records: one request round trip (doubled under acks=all, free under
// acks=0 for the waiting producer) plus the per-record marginal cost.
func (p *Producer) chargeProduce(n int) {
	c := p.b.costs
	switch p.cfg.Acks {
	case AcksNone:
		// Fire and forget: the sender does not wait for the round trip.
	case AcksAll:
		p.meter.Charge(2 * c.BrokerProduceBatch)
	default:
		p.meter.Charge(c.BrokerProduceBatch)
	}
	p.meter.Charge(time.Duration(n) * c.BrokerProducePerRecord)
	p.meter.Flush()
}

// Buffered reports the number of unflushed records, for tests.
func (p *Producer) Buffered() int {
	var n int
	for _, bt := range p.bufs {
		n += len(bt.recs)
	}
	return n
}
