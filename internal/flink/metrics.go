package flink

import "sync/atomic"

// OperatorMetrics counts records flowing through one logical operator,
// aggregated across its subtasks.
type OperatorMetrics struct {
	// Name is the operator's display name.
	Name string

	in  atomic.Int64
	out atomic.Int64
	// buffersOut and idleFlushes count at buffer granularity, for the
	// operator at a chain's tail only (see OperatorStats).
	buffersOut  atomic.Int64
	idleFlushes atomic.Int64
}

func (m *OperatorMetrics) incIn()  { m.in.Add(1) }
func (m *OperatorMetrics) incOut() { m.out.Add(1) }

func (m *OperatorMetrics) reset() {
	m.in.Store(0)
	m.out.Store(0)
	m.buffersOut.Store(0)
	m.idleFlushes.Store(0)
}

// snapshot freezes the counters into a plain value.
func (m *OperatorMetrics) snapshot() OperatorStats {
	return OperatorStats{
		Name:        m.Name,
		RecordsIn:   m.in.Load(),
		RecordsOut:  m.out.Load(),
		BuffersOut:  m.buffersOut.Load(),
		IdleFlushes: m.idleFlushes.Load(),
	}
}

// OperatorStats is an immutable snapshot of one operator's counters.
type OperatorStats struct {
	Name       string
	RecordsIn  int64
	RecordsOut int64
	// BuffersOut counts the network buffers shipped across the task
	// boundary behind this operator (summed over its outgoing edges and
	// their targets); it is zero unless the operator is the tail of a
	// chain with a downstream task. RecordsOut/BuffersOut is the mean
	// buffer fill in records on a single-edge boundary (watermark control
	// events ride in the same buffers and are not counted).
	BuffersOut int64
	// IdleFlushes counts how often a subtask of this operator's chain ran
	// out of input with output still buffered and shipped it partly
	// filled — how often the task ran dry.
	IdleFlushes int64
}
