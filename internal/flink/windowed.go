package flink

import (
	"fmt"
	"time"

	"beambench/internal/watermark"
)

// EventTimeFn extracts a record's event timestamp from the record
// itself, e.g. a time column of the payload.
type EventTimeFn func(rec []byte) (time.Time, error)

// WindowFormatFn renders one fired pane as an output record.
type WindowFormatFn func(windowStart time.Time, key []byte, value int64) []byte

// ValueFn extracts the numeric column a windowed aggregate folds; nil
// selects a pure count.
type ValueFn func(rec []byte) (int64, error)

// AssignTimestampsBounded adds the standard bounded-out-of-orderness
// timestamp assigner: each record's event time feeds a
// watermark.Generator with the given bound, and every generator advance
// is emitted downstream as a watermark control event. Place it where
// event time enters the dataflow (after the source); every operator
// between it and the stateful consumers forwards the watermark
// min-over-inputs automatically.
func (ds *DataStream) AssignTimestampsBounded(name string, eventTime EventTimeFn, bound time.Duration) *DataStream {
	if eventTime == nil {
		ds.env.fail(fmt.Errorf("flink: assignTimestamps %q: nil event-time fn", name))
		return ds.AssignTimestamps(name, nil)
	}
	return ds.AssignTimestamps(name, func(ctx OperatorContext, wm WatermarkEmitter) (ProcessFunc, error) {
		gen := watermark.NewGenerator(bound)
		return func(rec []byte, out Collector) error {
			et, err := eventTime(rec)
			if err != nil {
				return fmt.Errorf("flink: %s event time: %w", name, err)
			}
			if err := out.Collect(rec); err != nil {
				return err
			}
			if gen.Observe(et) {
				return wm.EmitWatermark(gen.Current())
			}
			return nil
		}, nil
	})
}

// WindowConfig parameterizes a keyed windowed aggregation.
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
	// assignment). Pane firing is driven by the propagated watermark, so
	// the pipeline needs a timestamp assigner upstream (typically
	// AssignTimestampsBounded right after the source).
	EventTime EventTimeFn
	// Key derives each record's grouping key; the caller routes records
	// with KeyBy using the same selector, so every key's records reach
	// one subtask.
	Key KeySelector
	// Format renders fired panes.
	Format WindowFormatFn
}

func (c *WindowConfig) validate() error {
	if c.Assigner == nil {
		a, err := watermark.NewTumblingAssigner(c.Size)
		if err != nil {
			return fmt.Errorf("flink: windowed aggregation: %w", err)
		}
		c.Assigner = a
	}
	if c.Agg == 0 {
		c.Agg = watermark.AggCount
	}
	if !c.Agg.Valid() {
		return fmt.Errorf("flink: windowed aggregation: invalid agg kind %d", c.Agg)
	}
	if c.EventTime == nil {
		return fmt.Errorf("flink: windowed aggregation needs an event-time extractor")
	}
	if c.Key == nil {
		return fmt.Errorf("flink: windowed aggregation needs a key selector")
	}
	if c.Format == nil {
		return fmt.Errorf("flink: windowed aggregation needs a pane formatter")
	}
	return nil
}

// AggWindow adds the engine's windowed reduce operator: a keyed
// per-(window, key) aggregate — count, sum, min, max or avg over a
// record column — under any window assigner. Panes fire off the
// propagated watermark: the runtime delivers the minimum watermark over
// the subtask's senders as control events arrive, releasing every
// window the watermark has passed — ascending by window, keys in
// first-seen order — and the remaining windows flush when the bounded
// input ends (the sources met broker.EndOfInput and the end-of-stream
// watermark arrived), so the operator terminates cleanly in both
// preload and streaming ingestion.
//
// Use after KeyBy with the same selector and with a timestamp assigner
// upstream; the operator is stateful per subtask and relies on keyed
// routing for cross-subtask correctness. Because the watermark is
// combined min-over-senders before delivery, a keyed merge of several
// concurrently active upstream subtasks needs no conservative fallback:
// no pane fires before every sender's watermark has passed its end.
func (ds *DataStream) AggWindow(name string, cfg WindowConfig) *DataStream {
	if err := cfg.validate(); err != nil {
		ds.env.fail(err)
		return ds.ProcessWithWatermark(name, nil)
	}
	return ds.ProcessWithWatermark(name, func(ctx OperatorContext) (ProcessFunc, WatermarkFunc, FlushFunc, error) {
		state, err := watermark.NewWindowState[watermark.NumAcc](cfg.Assigner, func(into *watermark.NumAcc, from watermark.NumAcc) {
			into.Merge(from)
		})
		if err != nil {
			return nil, nil, nil, err
		}
		// The pane emitter is built once per subtask: the watermark hook
		// runs for every record, and hands its collector over through out.
		var out Collector
		emitPane := func(p watermark.Pane[watermark.NumAcc]) error {
			return out.Collect(cfg.Format(p.Start, []byte(p.Key), p.Acc.Result(cfg.Agg)))
		}
		process := func(rec []byte, _ Collector) error {
			et, err := cfg.EventTime(rec)
			if err != nil {
				return fmt.Errorf("flink: %s event time: %w", name, err)
			}
			key, err := cfg.Key(rec)
			if err != nil {
				return fmt.Errorf("flink: %s key: %w", name, err)
			}
			v := int64(0)
			if cfg.Value != nil {
				if v, err = cfg.Value(rec); err != nil {
					return fmt.Errorf("flink: %s value: %w", name, err)
				}
			}
			for _, acc := range state.Panes(et, key) {
				acc.Add(v)
			}
			return nil
		}
		onWatermark := func(w time.Time, o Collector) error {
			out = o
			return state.FireReady(w, emitPane)
		}
		flush := func(o Collector) error {
			out = o
			return state.FireAll(emitPane)
		}
		return process, onWatermark, flush, nil
	})
}

// TumblingCountWindow adds the classic keyed per-(window, key) count
// over event-time tumbling windows — AggWindow specialized to the
// original benchmark query. Pane firing is driven by the propagated
// watermark; pair it with AssignTimestampsBounded upstream.
func (ds *DataStream) TumblingCountWindow(name string, cfg WindowConfig) *DataStream {
	cfg.Assigner = nil
	cfg.Agg = watermark.AggCount
	cfg.Value = nil
	return ds.AggWindow(name, cfg)
}
