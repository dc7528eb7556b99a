package watermark

import (
	"errors"
	"fmt"
	"time"
)

// Operator is the engine-neutral keyed-operator contract: what a
// stateful event-time operator does, with nothing about when an engine
// asks it to. Each engine deploys any Operator through one hook that
// expresses its own firing clock and nothing else — flink.KeyedProcess
// delivers the min-over-senders watermark per control event (per tuple
// behind a per-tuple assigner), apex.KeyedOp at the control events of
// the streaming-window protocol, spark.Stateful once per micro-batch —
// so the operators below exist once: AggOperator here, graphx.GBKState
// and queries.JoinState next to the layers they serve.
//
// One instance belongs to one subtask/partition and is called from one
// goroutine at a time; keyed routing (every record of a key reaching
// the same instance) is the engine's job.
//
// emit hands a record to the engine's downstream path and reports its
// shutdown or failure, which the operator returns at once. It is valid
// only during the call it was passed to: an operator may park it in a
// field for that call's pane callbacks, and must not invoke it after
// returning. Engines bind emit once per operator instance and pass the
// same value on every call — that is what lets an operator park it
// without allocating on a per-record path.
//
// Records are immutable (the ownership rule on broker.Record): an
// operator may keep rec, and sub-slices of it, in its state for as long
// as it likes and must not write into it; the same holds downstream for
// what it emits.
type Operator interface {
	// Process consumes one record.
	Process(rec []byte, emit func([]byte) error) error
	// OnWatermark delivers the instance's combined input watermark — no
	// record with an earlier event time will arrive — and emits what it
	// releases. Engines may repeat a watermark; they never regress it.
	OnWatermark(w time.Time, emit func([]byte) error) error
	// Flush ends the input and emits all remaining state.
	Flush(emit func([]byte) error) error
}

// AggConfig parameterizes the keyed windowed aggregate (AggOperator).
type AggConfig struct {
	// Assigner selects the window family: tumbling or sliding.
	Assigner Assigner
	// Agg selects the reduction over Value.
	Agg AggKind
	// Value extracts the aggregated column; nil folds 0 per record,
	// which is all AggCount needs.
	Value func(rec []byte) (int64, error)
	// EventTime derives a record's event timestamp, which assigns its
	// windows. Firing is driven by the watermark the engine delivers, so
	// the dataflow needs a timestamp assigner upstream.
	EventTime func(rec []byte) (time.Time, error)
	// Key derives a record's grouping key; the engine routes by the
	// same function.
	Key func(rec []byte) ([]byte, error)
	// Format renders one fired pane as an output record.
	Format func(windowStart time.Time, key []byte, value int64) []byte
}

func (c *AggConfig) validate() error {
	switch {
	case c.Assigner == nil:
		return errors.New("watermark: windowed aggregate: nil window assigner")
	case !c.Agg.Valid():
		return fmt.Errorf("watermark: windowed aggregate: invalid agg kind %d", c.Agg)
	case c.EventTime == nil || c.Key == nil || c.Format == nil:
		return errors.New("watermark: windowed aggregate: nil event-time, key or format fn")
	}
	return nil
}

// AggOperator is the keyed windowed aggregate every engine deploys for
// its native windowed queries: a per-(window, key) count, sum, min, max
// or average of a record column under any window assigner. Records only
// accumulate; panes fire when the delivered watermark passes their
// window's end — ascending by window, keys in first-seen order — and
// the rest at Flush. Late records follow WindowState: they re-open
// their window, which fires a second, partial pane.
type AggOperator struct {
	cfg   AggConfig
	state *WindowState[NumAcc]
	// emit is the running call's emit, parked for pane, which is
	// o.emitPane bound once.
	emit func([]byte) error
	pane func(Pane[NumAcc]) error
}

// NewAggOperator validates cfg and returns an empty operator instance.
func NewAggOperator(cfg AggConfig) (*AggOperator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	state, err := NewWindowState[NumAcc](cfg.Assigner, nil)
	if err != nil {
		return nil, err
	}
	o := &AggOperator{cfg: cfg, state: state}
	o.pane = o.emitPane
	return o, nil
}

// Process folds one record into the panes of its windows.
func (o *AggOperator) Process(rec []byte, _ func([]byte) error) error {
	et, err := o.cfg.EventTime(rec)
	if err != nil {
		return fmt.Errorf("watermark: window event time: %w", err)
	}
	key, err := o.cfg.Key(rec)
	if err != nil {
		return fmt.Errorf("watermark: window key: %w", err)
	}
	v := int64(0)
	if o.cfg.Value != nil {
		if v, err = o.cfg.Value(rec); err != nil {
			return fmt.Errorf("watermark: window value: %w", err)
		}
	}
	for _, acc := range o.state.Panes(et, key) {
		acc.Add(v)
	}
	return nil
}

// OnWatermark fires every pane whose window w has passed.
func (o *AggOperator) OnWatermark(w time.Time, emit func([]byte) error) error {
	o.emit = emit
	return o.state.FireReady(w, o.pane)
}

// Flush fires every remaining pane.
func (o *AggOperator) Flush(emit func([]byte) error) error {
	o.emit = emit
	return o.state.FireAll(o.pane)
}

func (o *AggOperator) emitPane(p Pane[NumAcc]) error {
	return o.emit(o.cfg.Format(p.Start, []byte(p.Key), p.Acc.Result(o.cfg.Agg)))
}
