package graphx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"beambench/internal/beam"
	"beambench/internal/obs"
	"beambench/internal/simcost"
	"beambench/internal/watermark"
)

// ErrUnsupportedWindowing marks GroupByKey windowing shapes the shared
// executable cannot run: a non-global window fn outside the supported
// family (FixedWindows, SlidingWindows), or non-global windowing
// without an element-derived event-time extractor (deterministic
// windowing is impossible once coder boundaries erased the flow
// timestamps). It wraps beam.ErrUnsupported so runner and
// harness callers can match it generically.
var ErrUnsupportedWindowing = fmt.Errorf("%w: GroupByKey windowing", beam.ErrUnsupported)

// GBKConfig parameterizes the shared GroupByKey executable.
type GBKConfig struct {
	// Windowing is the input collection's strategy: global windows (with
	// an optional count trigger) or event-time windowing (fixed or
	// sliding windows) with an EventTime extractor.
	Windowing beam.WindowingStrategy
	// Input is the KV boundary coder of the consumed collection.
	Input beam.KVCoder
	// Output encodes the emitted Grouped panes.
	Output beam.Coder
	// Costs is the runner's latency model; Charge receives the modeled
	// durations (nil disables charging).
	Costs  simcost.Costs
	Charge func(time.Duration)
	// Trace, when non-nil, records a watermark gauge for the grouping
	// state and an instant event per fired pane. Nil disables tracing.
	Trace *obs.Tracer
}

// GBKState is the stateful GroupByKey executable every engine runner
// deploys — a watermark.Operator, handed as is to the engine's keyed
// hook — sharing one pane-firing semantics across Flink, Spark and Apex
// (and matching the direct runner's reference output):
//
//   - Global windows: values group per key; an AfterCount trigger fires
//     a key's pane every N values, and Flush emits the remaining groups
//     in first-seen key order — the pre-existing bounded behaviour.
//   - Event-time windows: each element's windows are derived from the
//     element itself (Windowing.EventTime applied to the KV value) via
//     the strategy's window fn — one window under FixedWindows, several
//     overlapping ones under SlidingWindows. The executable generates no
//     watermark of its own: pane firing is driven entirely by the
//     watermark the engine propagates through the dataflow as control
//     events (stamped by the upstream WindowInto assigner) and delivered
//     via OnWatermark.
//     Windows the watermark has passed fire ascending by (end, start)
//     with keys in first-seen order; Flush (the source met
//     broker.EndOfInput, so the end-of-stream watermark arrived) fires
//     the rest in the same order. The firing order depends only on the
//     record arrival order, which is what makes the engines
//     byte-identical on ordered inputs and multiset-identical always.
//
// A GBKState instance is owned by one engine subtask/partition; keyed
// routing (all records of a key reaching the same instance) is the
// engine's responsibility. Because the engine combines the watermark
// min-over-senders before delivery, a keyed merge of several racing
// upstream partitions needs no conservative fallback: no pane fires
// before every sender's watermark has passed its end.
type GBKState struct {
	cfg      GBKConfig
	windowed bool

	// Global-window mode.
	fireAfter int
	groups    map[string]*globalGroup
	order     []string

	// Event-time mode. keyBuf holds the current record's canonical key
	// as bytes, the form the pane state looks keys up by.
	state  *watermark.WindowState[windowAcc]
	keyBuf []byte
	// emit is the running call's emit, parked for pane, which is
	// g.emitPane bound once.
	emit func([]byte) error
	pane func(watermark.Pane[windowAcc]) error

	// Tracing handles, resolved once at construction (nil when disabled).
	wmGauge *obs.Gauge
}

// globalGroup is one key's pending values in global-window mode.
type globalGroup struct {
	key    any
	values []any
}

// windowAcc is one (window, key) pane accumulator in event-time mode.
type windowAcc struct {
	key    any
	values []any
}

// assignerFor maps the SDK window fn onto the shared window-assignment
// family.
func assignerFor(fn beam.WindowFn) (watermark.Assigner, error) {
	switch f := fn.(type) {
	case beam.FixedWindows:
		a, err := watermark.NewTumblingAssigner(f.Size)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUnsupportedWindowing, err)
		}
		return a, nil
	case beam.SlidingWindows:
		a, err := watermark.NewSlidingAssigner(f.Size, f.Slide)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUnsupportedWindowing, err)
		}
		return a, nil
	}
	return nil, fmt.Errorf("%w: window fn %s", ErrUnsupportedWindowing, fn.Name())
}

// NewGBKState validates the windowing shape and returns a fresh
// executable instance.
func NewGBKState(cfg GBKConfig) (*GBKState, error) {
	if cfg.Input.Key == nil || cfg.Input.Value == nil {
		return nil, errors.New("graphx: GroupByKey input is not KV-coded")
	}
	if cfg.Output == nil {
		return nil, errors.New("graphx: GroupByKey needs an output coder")
	}
	g := &GBKState{cfg: cfg, wmGauge: cfg.Trace.Gauge("watermark-lag/GroupByKey")}
	ws := cfg.Windowing
	if ws.IsGlobal() {
		if ws.Trigger != nil {
			g.fireAfter = ws.Trigger.FireAfter()
		}
		g.groups = make(map[string]*globalGroup)
		return g, nil
	}
	assigner, err := assignerFor(ws.Fn)
	if err != nil {
		return nil, err
	}
	if ws.EventTime == nil {
		return nil, fmt.Errorf("%w: non-global windowing without an event-time extractor", ErrUnsupportedWindowing)
	}
	state, err := watermark.NewWindowState[windowAcc](assigner, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnsupportedWindowing, err)
	}
	g.windowed = true
	g.state = state
	g.pane = g.emitPane
	return g, nil
}

// GBK validates a GroupByKey stage's windowing shape once, at
// translation time (a rejection wraps beam.ErrUnsupported), and returns
// the constructor an engine's keyed hook calls per instance with that
// instance's charge.
func (s *Stage) GBK(costs simcost.Costs, trace *obs.Tracer) (func(charge func(time.Duration)) (*GBKState, error), error) {
	in := s.Inputs()[0]
	cfg := GBKConfig{
		Windowing: in.Windowing(),
		Input:     in.Coder().(beam.KVCoder), // Lower checked
		Output:    s.Output().Coder(),
		Costs:     costs,
		Trace:     trace,
	}
	if _, err := NewGBKState(cfg); err != nil {
		return nil, err
	}
	return func(charge func(time.Duration)) (*GBKState, error) {
		cfg := cfg
		cfg.Charge = charge
		return NewGBKState(cfg)
	}, nil
}

// Windowed reports whether the instance runs in event-time mode.
func (g *GBKState) Windowed() bool { return g.windowed }

func (g *GBKState) charge(d time.Duration) {
	if g.cfg.Charge != nil {
		g.cfg.Charge(d)
	}
}

// Process consumes one encoded KV record. In event-time mode it only
// accumulates — pane firing awaits the propagated watermark
// (OnWatermark). In global mode a count trigger may fire the key's pane
// immediately.
func (g *GBKState) Process(rec []byte, emit func([]byte) error) error {
	elem, err := g.cfg.Input.Decode(rec)
	if err != nil {
		return fmt.Errorf("graphx: GroupByKey decode: %w", err)
	}
	g.charge(g.cfg.Costs.CoderPerRecord)
	g.charge(g.cfg.Costs.BeamDoFnPerRecord)
	kv, ok := elem.(beam.KV)
	if !ok {
		return fmt.Errorf("graphx: GroupByKey element %T is not a KV", elem)
	}
	ks, err := beam.KeyString(kv.Key)
	if err != nil {
		return err
	}

	if g.windowed {
		et, err := g.cfg.Windowing.EventTime(kv.Value)
		if err != nil {
			return fmt.Errorf("graphx: GroupByKey event time: %w", err)
		}
		g.keyBuf = append(g.keyBuf[:0], ks...)
		for _, acc := range g.state.Panes(et, g.keyBuf) {
			acc.key = kv.Key
			acc.values = append(acc.values, kv.Value)
		}
		return nil
	}

	grp, ok := g.groups[ks]
	if !ok {
		grp = &globalGroup{key: kv.Key}
		g.groups[ks] = grp
		g.order = append(g.order, ks)
	}
	grp.values = append(grp.values, kv.Value)
	if g.fireAfter > 0 && len(grp.values) >= g.fireAfter {
		return g.emitGlobal(grp, emit)
	}
	return nil
}

// OnWatermark delivers the propagated input watermark — a control
// event asserting no earlier event time will arrive on this instance's
// input — and emits every event-time pane the watermark released. It is
// a no-op in global-window mode, so engines can deliver watermarks
// unconditionally.
func (g *GBKState) OnWatermark(w time.Time, emit func([]byte) error) error {
	if !g.windowed {
		return nil
	}
	g.wmGauge.SetTime(w)
	g.emit = emit
	return g.state.FireReady(w, g.pane)
}

// Flush ends the input: in event-time mode every remaining pane fires
// (the end-of-stream watermark); in global mode the remaining groups
// fire in first-seen key order.
func (g *GBKState) Flush(emit func([]byte) error) error {
	if g.windowed {
		// The end-of-stream watermark arrived: the gauge reads as
		// drained (zero lag) from here on.
		g.wmGauge.SetTime(watermark.EndOfTime)
		g.emit = emit
		return g.state.FireAll(g.pane)
	}
	for _, ks := range g.order {
		if grp := g.groups[ks]; len(grp.values) > 0 {
			if err := g.emitGlobal(grp, emit); err != nil {
				return err
			}
		}
	}
	return nil
}

func (g *GBKState) emitGlobal(grp *globalGroup, emit func([]byte) error) error {
	wire, err := g.cfg.Output.Encode(beam.Grouped{Key: grp.key, Values: grp.values, Window: beam.GlobalWindow{}})
	if err != nil {
		return fmt.Errorf("graphx: GroupByKey encode: %w", err)
	}
	g.charge(g.cfg.Costs.CoderPerRecord)
	grp.values = nil
	return emit(wire)
}

func (g *GBKState) emitPane(p watermark.Pane[windowAcc]) error {
	wire, err := g.cfg.Output.Encode(beam.Grouped{
		Key:    p.Acc.key,
		Values: p.Acc.values,
		Window: beam.IntervalWindow{Start: p.Start, End: p.End},
	})
	if err != nil {
		return fmt.Errorf("graphx: GroupByKey encode: %w", err)
	}
	g.charge(g.cfg.Costs.CoderPerRecord)
	g.cfg.Trace.Instant("panes/GroupByKey", "pane")
	return g.emit(wire)
}

// EncodedKVKey extracts the key bytes from a KV-coded record without a
// full decode: the KV coder writes "uvarint keyLen | key | ...". Engine
// runners hash it for keyed routing (Flink KeyBy, the Spark keyed
// shuffle, Apex keyed stream partitioning) so equal keys meet in one
// GBKState instance.
func EncodedKVKey(rec []byte) ([]byte, error) {
	klen, n := binary.Uvarint(rec)
	if n <= 0 || uint64(len(rec)-n) < klen {
		return nil, errors.New("graphx: malformed KV encoding")
	}
	return rec[n : n+int(klen)], nil
}
