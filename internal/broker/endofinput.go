package broker

// EndOfInput implements the benchmark sources' shared end-of-input
// contract. A source constructs one with the total record count the
// topic will eventually hold (the harness-provided target), admits
// every record it consumes, and asks Complete whether it may terminate:
// once all target records have been appended to the topic and the
// source's assigned partitions are drained, the input is over — whether
// the topic was preloaded or was still filling while the job ran.
//
// A target <= 0 degrades to a bounded snapshot of the topic's contents
// at construction time, for direct engine-API use outside the harness:
// Admit rejects records appended after the snapshot, and Complete
// reports true once the assignments are drained to the snapshot bounds.
//
// EndOfInput is not safe for concurrent use; like a Consumer, each
// consuming goroutine owns its own.
type EndOfInput struct {
	b        *Broker
	topic    string
	target   int64
	assigned []int
	// ownsAll marks a source assigned every partition of the topic (the
	// benchmark shape: one partition, one consuming subtask): its own
	// admitted count then equals the topic total, so Complete needs no
	// broker round trips at all.
	ownsAll  bool
	bounds   []int64 // snapshot mode: per-partition end-offset caps
	consumed int64
}

// NewEndOfInput builds the tracker for a source consuming the assigned
// partitions of the topic. With target <= 0 it snapshots the topic's
// current end offsets as the input bound.
func NewEndOfInput(b *Broker, topic string, target int64, assigned []int) (*EndOfInput, error) {
	parts, err := b.Partitions(topic)
	if err != nil {
		return nil, err
	}
	e := &EndOfInput{
		b:        b,
		topic:    topic,
		target:   target,
		assigned: assigned,
		ownsAll:  len(assigned) == parts,
	}
	if target <= 0 {
		ends, err := b.EndOffsets(topic)
		if err != nil {
			return nil, err
		}
		e.bounds = ends
		e.target = 0
		for _, end := range ends {
			e.target += end
		}
	}
	return e, nil
}

// OpenShare opens source index of n's share of a topic: a consumer
// assigned, from offset 0, the partitions p with p%n == index — the
// round-robin distribution of topic partitions over parallel source
// instances — and the end-of-input tracker over exactly those
// partitions. An empty share (more instances than partitions) has
// nothing to read: see Empty.
func OpenShare(b *Broker, topic string, cfg ConsumerConfig, index, n int, target int64) (*Consumer, *EndOfInput, error) {
	parts, err := b.Partitions(topic)
	if err != nil {
		return nil, nil, err
	}
	consumer, err := b.NewConsumer(cfg)
	if err != nil {
		return nil, nil, err
	}
	var assigned []int
	for p := index; p < parts; p += n {
		if err := consumer.Assign(topic, p, 0); err != nil {
			return nil, nil, err
		}
		assigned = append(assigned, p)
	}
	eoi, err := NewEndOfInput(b, topic, target, assigned)
	if err != nil {
		return nil, nil, err
	}
	return consumer, eoi, nil
}

// Empty reports whether the source was assigned no partition. Such a
// source is done at once: Complete would hold it until the whole topic
// is, and with it the watermark of everything downstream.
func (e *EndOfInput) Empty() bool { return len(e.assigned) == 0 }

// Admit records one consumed record and reports whether the source may
// emit it: false exactly for records appended after a snapshot bound.
func (e *EndOfInput) Admit(r Record) bool {
	if e.bounds != nil && r.Offset >= e.bounds[r.Partition] {
		return false
	}
	e.consumed++
	return true
}

// Drained reports whether the admitted count has reached the target.
// This alone is the termination condition only for a source that owns
// every partition (Complete uses it then); sources sharing a topic must
// ask Complete.
func (e *EndOfInput) Drained() bool { return e.consumed >= e.target }

// Bound reports the snapshot bound of a partition; ok is false in
// target mode, where the producer contract bounds the topic instead.
// Sources driving one consumer per partition use it to skip fetches on
// partitions already read to their bound.
func (e *EndOfInput) Bound(p int) (int64, bool) {
	if e.bounds == nil {
		return 0, false
	}
	return e.bounds[p], true
}

// Complete reports whether the end-of-input contract is met. In target
// mode: all target records have reached the topic (across every
// partition, including those owned by other sources) and this source
// has drained its assignments to the final end offsets — a source
// owning every partition decides from its own admitted count alone,
// and one sharing the topic asks the broker only when idle (its last
// poll returned nothing) so the drain hot path stays free of per-batch
// EndOffsets round trips. In snapshot mode: the assignments are
// drained to the snapshot bounds.
func (e *EndOfInput) Complete(c *Consumer, idle bool) (bool, error) {
	ends := e.bounds
	if ends == nil { // target mode
		if e.ownsAll {
			return e.Drained(), nil
		}
		if !idle {
			return false, nil // data is still flowing; check when drained
		}
		current, err := e.b.EndOffsets(e.topic)
		if err != nil {
			return false, err
		}
		var total int64
		for _, end := range current {
			total += end
		}
		if total < e.target {
			return false, nil
		}
		ends = current
	}
	for _, p := range e.assigned {
		if pos, ok := c.Position(e.topic, p); !ok || pos < ends[p] {
			return false, nil
		}
	}
	return true, nil
}
