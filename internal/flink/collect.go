package flink

import "sync"

// RecordCollector is a thread-safe record buffer usable as a sink from
// multiple subtasks, for tests and examples.
type RecordCollector struct {
	mu      sync.Mutex
	records [][]byte
}

// NewRecordCollector returns an empty collector.
func NewRecordCollector() *RecordCollector {
	return &RecordCollector{}
}

// Invoke stores the record; records are immutable once emitted.
func (c *RecordCollector) Invoke(rec []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.records = append(c.records, rec)
	return nil
}

// Close implements Sink; it is a no-op.
func (c *RecordCollector) Close() error { return nil }

// Len reports the number of collected records.
func (c *RecordCollector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.records)
}

// Records returns the collected records in arrival order. The slice is
// the caller's; the records in it are read-only.
func (c *RecordCollector) Records() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.records...)
}

// Strings returns the collected records as strings in arrival order.
func (c *RecordCollector) Strings() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.records))
	for i, r := range c.records {
		out[i] = string(r)
	}
	return out
}
