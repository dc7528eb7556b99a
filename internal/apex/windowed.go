package apex

import (
	"fmt"
	"time"

	"beambench/internal/watermark"
)

// EventTimeFn extracts a tuple's event timestamp from the tuple itself,
// e.g. a time column of the payload.
type EventTimeFn func(tuple []byte) (time.Time, error)

// WindowFormatFn renders one fired pane as an output tuple.
type WindowFormatFn func(windowStart time.Time, key []byte, value int64) []byte

// ValueFn extracts the numeric column a windowed aggregate folds; nil
// selects a pure count.
type ValueFn func(tuple []byte) (int64, error)

// AssignTimestamps returns the timestamp/watermark assigner operator:
// each partition feeds a watermark.Generator with the given
// out-of-orderness bound and forwards tuples unchanged. The runtime
// publishes the generator's advances downstream as watermark control
// events (the WatermarkEmitter hook) — always behind the tuples they
// cover — so every operator between the assigner and the stateful
// consumers propagates the minimum-over-senders watermark
// automatically. Place it where event time enters the DAG, right after
// the input.
func AssignTimestamps(eventTime EventTimeFn, bound time.Duration) GenericFactory {
	if eventTime == nil {
		return failingGeneric(fmt.Errorf("apex: assign timestamps: nil event-time fn"))
	}
	return func(ctx OperatorContext) (GenericOperator, error) {
		return &assignOperator{gen: watermark.NewGenerator(bound), eventTime: eventTime}, nil
	}
}

// assignOperator implements GenericOperator plus WatermarkEmitter.
type assignOperator struct {
	gen       *watermark.Generator
	eventTime EventTimeFn
}

func (o *assignOperator) Process(t []byte, emit func([]byte) error) error {
	et, err := o.eventTime(t)
	if err != nil {
		return fmt.Errorf("apex: assign timestamps: %w", err)
	}
	o.gen.Observe(et)
	return emit(t)
}

// CurrentWatermark implements WatermarkEmitter.
func (o *assignOperator) CurrentWatermark() time.Time { return o.gen.Current() }

func (o *assignOperator) Teardown() error { return nil }

// WindowConfig parameterizes a keyed windowed aggregation (AggWindowOp).
type WindowConfig struct {
	// Size is the tumbling window length in event time; ignored when
	// Assigner is set.
	Size time.Duration
	// Assigner selects the window family (tumbling, sliding, session);
	// nil selects tumbling windows of Size.
	Assigner watermark.Assigner
	// Agg selects the reduction over Value; zero selects AggCount.
	Agg watermark.AggKind
	// Value extracts the aggregated column; nil counts tuples.
	Value ValueFn
	// EventTime derives each tuple's event timestamp (window
	// assignment). Pane firing is driven by the propagated watermark, so
	// the DAG needs an AssignTimestamps operator upstream.
	EventTime EventTimeFn
	// Key derives each tuple's grouping key; route the input stream with
	// Application.SetStreamKeyed using the same extractor.
	Key func(tuple []byte) ([]byte, error)
	// Format renders fired panes.
	Format WindowFormatFn
}

func (c *WindowConfig) validate() error {
	if c.Assigner == nil {
		a, err := watermark.NewTumblingAssigner(c.Size)
		if err != nil {
			return fmt.Errorf("apex: windowed aggregation: %w", err)
		}
		c.Assigner = a
	}
	if c.Agg == 0 {
		c.Agg = watermark.AggCount
	}
	if !c.Agg.Valid() {
		return fmt.Errorf("apex: windowed aggregation: invalid agg kind %d", c.Agg)
	}
	if c.EventTime == nil || c.Key == nil || c.Format == nil {
		return fmt.Errorf("apex: windowed aggregation: nil event-time, key or format fn")
	}
	return nil
}

// AggWindowOp returns the engine's keyed windowed aggregation operator:
// a per-(window, key) aggregate — count, sum, min, max or avg over a
// tuple column — under any window assigner. Panes fire off the
// propagated watermark (the WatermarkAware hook): the runtime delivers
// the minimum watermark over the partition's upstream senders as
// control events arrive, releasing every window the watermark has
// passed, and the remaining state drains when the input stream ends.
// Because the watermark is combined min-over-senders before delivery, a
// keyed merge of several racing upstream partitions needs no
// conservative fallback: no pane fires before every sender's watermark
// has passed its end.
//
// Route the input stream with Application.SetStreamKeyed using the same
// key extractor, so every key's tuples reach one partition.
func AggWindowOp(cfg WindowConfig) GenericFactory {
	if err := cfg.validate(); err != nil {
		return failingGeneric(err)
	}
	return func(ctx OperatorContext) (GenericOperator, error) {
		state, err := watermark.NewWindowState[watermark.NumAcc](cfg.Assigner,
			func(into *watermark.NumAcc, from watermark.NumAcc) { into.Merge(from) })
		if err != nil {
			return nil, err
		}
		return &windowAggOperator{cfg: cfg, state: state}, nil
	}
}

// TumblingCountWindow is AggWindowOp specialized to the original
// benchmark query: a per-(window, key) count over event-time tumbling
// windows. Pair it with an AssignTimestamps operator upstream — pane
// firing is driven by the propagated watermark.
func TumblingCountWindow(size time.Duration,
	eventTime EventTimeFn,
	key func(tuple []byte) ([]byte, error),
	format WindowFormatFn,
) GenericFactory {
	return AggWindowOp(WindowConfig{
		Size: size, EventTime: eventTime, Key: key, Format: format,
	})
}

// windowAggOperator implements GenericOperator plus the watermark and
// stream hooks.
type windowAggOperator struct {
	cfg   WindowConfig
	state *watermark.WindowState[watermark.NumAcc]
}

// Process accumulates one tuple; panes fire only on watermark advances.
func (o *windowAggOperator) Process(t []byte, emit func([]byte) error) error {
	et, err := o.cfg.EventTime(t)
	if err != nil {
		return fmt.Errorf("apex: window event time: %w", err)
	}
	key, err := o.cfg.Key(t)
	if err != nil {
		return fmt.Errorf("apex: window key: %w", err)
	}
	v := int64(0)
	if o.cfg.Value != nil {
		if v, err = o.cfg.Value(t); err != nil {
			return fmt.Errorf("apex: window value: %w", err)
		}
	}
	for _, acc := range o.state.Panes(et, key) {
		acc.Add(v)
	}
	return nil
}

// OnWatermark implements WatermarkAware: watermark-ready panes fire as
// the combined input watermark advances.
func (o *windowAggOperator) OnWatermark(w time.Time, emit func([]byte) error) error {
	return o.state.FireReady(w, o.emitPane(emit))
}

// EndStream implements StreamFlusher: the input ended, so every
// remaining pane fires.
func (o *windowAggOperator) EndStream(emit func([]byte) error) error {
	return o.state.FireAll(o.emitPane(emit))
}

func (o *windowAggOperator) emitPane(emit func([]byte) error) func(watermark.Pane[watermark.NumAcc]) error {
	return func(p watermark.Pane[watermark.NumAcc]) error {
		return emit(o.cfg.Format(p.Start, []byte(p.Key), p.Acc.Result(o.cfg.Agg)))
	}
}

// Teardown implements GenericOperator.
func (o *windowAggOperator) Teardown() error { return nil }
