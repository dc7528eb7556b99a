package metrics

import (
	"sync"
	"time"
)

// Stage is the throughput counter of one named pipeline stage (an engine
// operator, a fused executable stage, a sink). Producers resolve the
// handle once per task and Mark on it; both are safe for concurrent use.
type Stage struct {
	name string
	tp   Throughput
}

// Name returns the stage's name.
func (s *Stage) Name() string { return s.name }

// Mark counts n records through the stage now. A nil stage (collection
// disabled) is a no-op.
func (s *Stage) Mark(n int64) {
	if s == nil {
		return
	}
	s.tp.Mark(n)
}

// MarkAt counts n records through the stage at ts. A nil stage is a
// no-op.
func (s *Stage) MarkAt(ts time.Time, n int64) {
	if s == nil {
		return
	}
	s.tp.MarkAt(ts, n)
}

// Records reports the total records marked through the stage.
func (s *Stage) Records() int64 {
	if s == nil {
		return 0
	}
	return s.tp.Total()
}

// Current reports the stage's in-flight one-second window count — the
// instantaneous rate signal the obs lag monitor samples mid-run.
func (s *Stage) Current() int64 {
	if s == nil {
		return 0
	}
	return s.tp.Current()
}

// StageSummary is the reported throughput of one stage.
type StageSummary struct {
	// Name is the stage name as the engine labels it.
	Name string `json:"name"`
	// Records is the total record count through the stage.
	Records int64 `json:"records"`
	// ActiveSeconds counts one-second windows with activity.
	ActiveSeconds int64 `json:"activeSeconds"`
	// MeanRate is records/sec averaged over the active windows.
	MeanRate float64 `json:"meanRate"`
	// PeakRate is the busiest window's records/sec.
	PeakRate float64 `json:"peakRate"`
}

// LatencySummary is the reported event-time latency distribution of one
// benchmark cell, in seconds.
type LatencySummary struct {
	// Count is the number of records the distribution covers.
	Count int64 `json:"count"`
	// P50, P90 and P99 are the exact nearest-rank quantiles of
	// per-record event-time latency (output append time minus input
	// append time).
	P50 float64 `json:"p50Sec"`
	P90 float64 `json:"p90Sec"`
	P99 float64 `json:"p99Sec"`
	// Max is the largest observed latency.
	Max float64 `json:"maxSec"`
}

// Collector gathers the telemetry of one benchmark cell: the event-time
// latencies fed by the harness result calculator, and per-stage
// throughput counters fed concurrently by engine subtasks. A nil
// *Collector disables collection everywhere it is threaded.
type Collector struct {
	mu sync.RWMutex
	// latency holds the cell's observations until Seal, which fixes
	// summary and drops them (latency is nil from then on).
	latency *Sketch
	summary LatencySummary
	stages  map[string]*Stage
	order   []string
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		latency: MustSketch(),
		stages:  make(map[string]*Stage),
	}
}

// ObserveLatencySeconds records a batch of latency observations (in
// seconds) under one lock — the bulk path the harness result calculator
// uses after pairing a whole run. It costs an append of the batch,
// whatever the collector already holds. Safe for concurrent use; a nil
// collector is a no-op. Observing into a sealed collector panics: the
// cell's summary is already fixed.
func (c *Collector) ObserveLatencySeconds(ds []float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.latency == nil {
		panic("metrics: latency observed after Seal; a sealed cell's summary is final")
	}
	c.latency.vals = append(c.latency.vals, ds...)
}

// Seal fixes the latency summary and releases the observations behind
// it: a finished cell keeps five numbers, not one per output record.
// LatencySummary keeps answering the fixed summary; a later observation
// panics. Sealing twice is a no-op, and so is sealing a nil collector.
func (c *Collector) Seal() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.latency == nil {
		return
	}
	c.summary = c.latency.summary()
	c.latency = nil
}

// Stage returns the named stage's counter, creating it on first use.
// Safe for concurrent use; a nil collector returns a nil stage, whose
// methods are no-ops.
func (c *Collector) Stage(name string) *Stage {
	if c == nil {
		return nil
	}
	c.mu.RLock()
	s, ok := c.stages[name]
	c.mu.RUnlock()
	if ok {
		return s
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.stages[name]; ok {
		return s
	}
	s = &Stage{name: name}
	c.stages[name] = s
	c.order = append(c.order, name)
	return s
}

// EachStage calls fn for every registered stage in first-use order,
// without copying — the obs monitor iterates this at sampling cadence.
// fn must not call back into the collector. Nil-safe.
func (c *Collector) EachStage(fn func(*Stage)) {
	if c == nil {
		return
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, name := range c.order {
		fn(c.stages[name])
	}
}

// LatencySummary reports the collected latency distribution: the
// summary Seal fixed, or else the one of the observations so far.
func (c *Collector) LatencySummary() LatencySummary {
	if c == nil {
		return LatencySummary{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.latency == nil {
		return c.summary
	}
	return c.latency.summary()
}

// StageSummaries reports every stage's throughput in first-use order.
func (c *Collector) StageSummaries() []StageSummary {
	if c == nil {
		return nil
	}
	c.mu.RLock()
	names := append([]string(nil), c.order...)
	c.mu.RUnlock()
	out := make([]StageSummary, 0, len(names))
	for _, name := range names {
		s := c.Stage(name)
		active, mean, peak := s.tp.Rates()
		out = append(out, StageSummary{
			Name:          name,
			Records:       s.tp.Total(),
			ActiveSeconds: active,
			MeanRate:      mean,
			PeakRate:      peak,
		})
	}
	return out
}

// Registry keys collectors by benchmark cell, get-or-create, safe for
// concurrent use by the matrix scheduler's workers.
type Registry struct {
	mu    sync.RWMutex
	cells map[string]*Collector
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{cells: make(map[string]*Collector)}
}

// Collector returns the cell's collector, creating it on first use. A
// nil registry returns a nil collector (collection disabled).
func (r *Registry) Collector(cell string) *Collector {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c, ok := r.cells[cell]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.cells[cell]; ok {
		return c
	}
	c = NewCollector()
	r.cells[cell] = c
	r.order = append(r.order, cell)
	return c
}

// Get returns the cell's collector without creating it.
func (r *Registry) Get(cell string) (*Collector, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.cells[cell]
	return c, ok
}

// Cells lists the registered cell keys in first-use order.
func (r *Registry) Cells() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}
