package spark

import (
	"fmt"
	"sync"
	"time"

	"beambench/internal/watermark"
)

// StatefulProcessor is a keyed per-partition operator whose state
// survives across micro-batches — the engine's state path (the
// updateStateByKey/mapWithState family). One instance exists per stage
// partition for the lifetime of the run; records of one partition are
// delivered in batch order.
type StatefulProcessor interface {
	// Process handles one record of the current batch; task carries the
	// running task's cost meter.
	Process(task TaskContext, rec []byte, emit func([]byte)) error
	// EndBatch marks a micro-batch boundary; window firing happens here,
	// so pane emission is quantized to batch boundaries as micro-batch
	// semantics dictate.
	EndBatch(task TaskContext, emit func([]byte)) error
	// EndStream flushes remaining state when the bounded input ends.
	EndStream(task TaskContext, emit func([]byte)) error
}

// StatefulFactory builds the processor of one stage partition; it runs
// once per partition on first use, not per batch.
type StatefulFactory func(partition int) (StatefulProcessor, error)

// Stateful adds a keyed stateful stage whose per-partition processors
// persist across micro-batches. The stage is a barrier in the lineage
// (like a shuffle): upstream narrow stages compute per batch, the
// stateful stage consumes the batch, and its emissions feed the
// downstream stages of the same batch. When the bounded input drains,
// the scheduler runs one final flush pass in which EndStream emissions
// flow through the downstream lineage.
//
// A stateful stage must be consumed by exactly one output operation:
// Spark recomputes lineage per output (no cache()), and replaying
// records into persistent state would double-count.
func (ds *DStream) Stateful(name string, factory StatefulFactory) *DStream {
	if factory == nil {
		ds.ssc.fail(fmt.Errorf("spark: stateful stage %q: nil factory", name))
		return ds
	}
	out := &DStream{
		ssc:    ds.ssc,
		parent: ds,
		kind:   stageStateful,
		name:   name,
		state:  &statefulNode{factory: factory},
	}
	return out
}

// statefulNode is the persistent run-time state of one Stateful stage.
type statefulNode struct {
	factory StatefulFactory

	mu        sync.Mutex
	instances []StatefulProcessor
}

// instancesFor returns the stage's processors, creating them on first
// use and pinning the partition count for the rest of the run.
func (n *statefulNode) instancesFor(parts int) ([]StatefulProcessor, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.instances == nil {
		n.instances = make([]StatefulProcessor, parts)
		for p := range n.instances {
			inst, err := n.factory(p)
			if err != nil {
				n.instances = nil
				return nil, err
			}
			n.instances[p] = inst
		}
	}
	if len(n.instances) != parts {
		return nil, fmt.Errorf("spark: stateful stage saw %d partitions after %d; keyed state needs a stable layout",
			parts, len(n.instances))
	}
	return n.instances, nil
}

// current returns the already-created processors (possibly nil), for the
// end-of-input flush pass.
func (n *statefulNode) current() []StatefulProcessor {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.instances
}

// RepartitionByKey redistributes records into n partitions by key hash,
// so all records with equal keys land in the same partition — the
// shuffle a keyed stateful stage needs when upstream partitioning is
// round-robin. It introduces a shuffle boundary like Repartition.
func (ds *DStream) RepartitionByKey(n int, key func(rec []byte) ([]byte, error)) *DStream {
	if n <= 0 {
		ds.ssc.fail(fmt.Errorf("spark: repartition by key to %d partitions", n))
		return ds
	}
	if key == nil {
		ds.ssc.fail(fmt.Errorf("spark: repartition by key: nil key selector"))
		return ds
	}
	return &DStream{ssc: ds.ssc, parent: ds, kind: stageShuffle, width: n, shuffleKey: key}
}

// ValueFn extracts the numeric column a windowed aggregate folds; nil
// selects a pure count.
type ValueFn func(rec []byte) (int64, error)

// WindowFormatFn renders one fired pane as an output record.
type WindowFormatFn func(windowStart time.Time, key []byte, value int64) []byte

// WindowConfig parameterizes a keyed windowed aggregation
// (AggByKeyAndWindow).
type WindowConfig struct {
	// Size is the tumbling window length in event time; ignored when
	// Assigner is set.
	Size time.Duration
	// Assigner selects the window family (tumbling, sliding, session);
	// nil selects tumbling windows of Size.
	Assigner watermark.Assigner
	// Agg selects the reduction over Value; zero selects AggCount.
	Agg watermark.AggKind
	// Value extracts the aggregated column; nil counts records.
	Value ValueFn
	// EventTime derives each record's event timestamp (window
	// assignment). Pane firing is driven by the propagated watermark
	// (TaskContext.Watermark), so the lineage needs a timestamp assigner
	// upstream — AssignTimestampsBounded after the input.
	EventTime EventTimeFn
	// Key derives each record's grouping key.
	Key func(rec []byte) ([]byte, error)
	// Format renders fired panes.
	Format WindowFormatFn
}

func (c *WindowConfig) validate() error {
	if c.Assigner == nil {
		a, err := watermark.NewTumblingAssigner(c.Size)
		if err != nil {
			return fmt.Errorf("spark: windowed aggregation: %w", err)
		}
		c.Assigner = a
	}
	if c.Agg == 0 {
		c.Agg = watermark.AggCount
	}
	if !c.Agg.Valid() {
		return fmt.Errorf("spark: windowed aggregation: invalid agg kind %d", c.Agg)
	}
	if c.EventTime == nil || c.Key == nil || c.Format == nil {
		return fmt.Errorf("spark: windowed aggregation: nil event-time, key or format fn")
	}
	return nil
}

// AggByKeyAndWindow adds the engine's windowed aggregation: a keyed
// per-(window, key) aggregate — count, sum, min, max or avg over a
// record column — under any window assigner, held in micro-batch state
// that persists across batches. Panes fire at micro-batch boundaries
// off the propagated watermark the scheduler delivers in
// TaskContext.Watermark (the minimum over the lineage's upstream
// timestamp assigners) — so output is quantized to batch ends, the
// engine's natural clock — and the remaining windows flush when the
// bounded input ends.
//
// Records must reach the stage keyed (single input partition, or via
// RepartitionByKey); the state is partition-local.
func (ds *DStream) AggByKeyAndWindow(name string, cfg WindowConfig) *DStream {
	if err := cfg.validate(); err != nil {
		ds.ssc.fail(fmt.Errorf("spark: %s: %w", name, err))
		return ds
	}
	return ds.Stateful(name, func(int) (StatefulProcessor, error) {
		state, err := watermark.NewWindowState[watermark.NumAcc](cfg.Assigner,
			func(into *watermark.NumAcc, from watermark.NumAcc) { into.Merge(from) })
		if err != nil {
			return nil, err
		}
		return &windowAggState{cfg: cfg, state: state}, nil
	})
}

// ReduceByKeyAndWindow is AggByKeyAndWindow specialized to the original
// benchmark query: a keyed per-(window, key) count over event-time
// tumbling windows. Pair it with AssignTimestampsBounded upstream —
// pane firing is driven by the propagated watermark.
func (ds *DStream) ReduceByKeyAndWindow(name string, size time.Duration,
	eventTime EventTimeFn,
	key func(rec []byte) ([]byte, error),
	format WindowFormatFn,
) *DStream {
	return ds.AggByKeyAndWindow(name, WindowConfig{
		Size: size, EventTime: eventTime, Key: key, Format: format,
	})
}

// windowAggState is the AggByKeyAndWindow processor.
type windowAggState struct {
	cfg   WindowConfig
	state *watermark.WindowState[watermark.NumAcc]
}

func (s *windowAggState) Process(task TaskContext, rec []byte, emit func([]byte)) error {
	et, err := s.cfg.EventTime(rec)
	if err != nil {
		return fmt.Errorf("spark: window event time: %w", err)
	}
	key, err := s.cfg.Key(rec)
	if err != nil {
		return fmt.Errorf("spark: window key: %w", err)
	}
	v := int64(0)
	if s.cfg.Value != nil {
		if v, err = s.cfg.Value(rec); err != nil {
			return fmt.Errorf("spark: window value: %w", err)
		}
	}
	for _, acc := range s.state.Panes(et, key) {
		acc.Add(v)
	}
	return nil
}

func (s *windowAggState) EndBatch(task TaskContext, emit func([]byte)) error {
	return s.state.FireReady(task.Watermark, s.emitPane(emit))
}

func (s *windowAggState) EndStream(task TaskContext, emit func([]byte)) error {
	return s.state.FireAll(s.emitPane(emit))
}

func (s *windowAggState) emitPane(emit func([]byte)) func(watermark.Pane[watermark.NumAcc]) error {
	return func(p watermark.Pane[watermark.NumAcc]) error {
		emit(s.cfg.Format(p.Start, []byte(p.Key), p.Acc.Result(s.cfg.Agg)))
		return nil
	}
}
