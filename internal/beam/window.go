package beam

import (
	"fmt"
	"math"
	"time"
)

// Window is an element grouping interval for aggregations.
type Window interface {
	// MaxTimestamp is the window's inclusive upper bound.
	MaxTimestamp() time.Time
	// Key identifies the window for grouping.
	Key() string
}

// GlobalWindow is the single window covering all time.
type GlobalWindow struct{}

// MaxTimestamp implements Window.
func (GlobalWindow) MaxTimestamp() time.Time {
	return time.Unix(0, math.MaxInt64)
}

// Key implements Window.
func (GlobalWindow) Key() string { return "global" }

// IntervalWindow is a half-open time interval [Start, End).
type IntervalWindow struct {
	Start time.Time
	End   time.Time
}

// MaxTimestamp implements Window.
func (w IntervalWindow) MaxTimestamp() time.Time {
	return w.End.Add(-time.Nanosecond)
}

// Key implements Window.
func (w IntervalWindow) Key() string {
	return fmt.Sprintf("[%d,%d)", w.Start.UnixNano(), w.End.UnixNano())
}

// WindowFn assigns elements to windows.
type WindowFn interface {
	// Name identifies the strategy.
	Name() string
	// AssignWindows returns the windows for an element timestamp.
	AssignWindows(ts time.Time) []Window
}

// GlobalWindows assigns every element to the global window.
type GlobalWindows struct{}

// Name implements WindowFn.
func (GlobalWindows) Name() string { return "GlobalWindows" }

// AssignWindows implements WindowFn.
func (GlobalWindows) AssignWindows(time.Time) []Window {
	return []Window{GlobalWindow{}}
}

// FixedWindows assigns elements to fixed-size tumbling windows.
type FixedWindows struct {
	Size time.Duration
}

// Name implements WindowFn.
func (f FixedWindows) Name() string { return fmt.Sprintf("FixedWindows(%v)", f.Size) }

// AssignWindows implements WindowFn.
func (f FixedWindows) AssignWindows(ts time.Time) []Window {
	if f.Size <= 0 {
		return []Window{GlobalWindow{}}
	}
	start := ts.Truncate(f.Size)
	return []Window{IntervalWindow{Start: start, End: start.Add(f.Size)}}
}

// SlidingWindows assigns elements to overlapping windows of Size every
// Slide, aligned to the epoch. An element belongs to ceil(Size/Slide)
// windows (fewer near the epoch); Slide need not divide Size.
type SlidingWindows struct {
	Size, Slide time.Duration
}

// Name implements WindowFn.
func (f SlidingWindows) Name() string {
	return fmt.Sprintf("SlidingWindows(%v/%v)", f.Size, f.Slide)
}

// AssignWindows implements WindowFn: every window [start, start+Size)
// with start aligned to Slide and start in (ts−Size, ts], ascending by
// start.
func (f SlidingWindows) AssignWindows(ts time.Time) []Window {
	if f.Size <= 0 || f.Slide <= 0 {
		return []Window{GlobalWindow{}}
	}
	var out []Window
	for start := ts.Truncate(f.Slide); start.After(ts.Add(-f.Size)); start = start.Add(-f.Slide) {
		out = append(out, IntervalWindow{Start: start, End: start.Add(f.Size)})
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Trigger controls when aggregations over unbounded global windows may
// fire; the SDK supports element-count triggers.
type Trigger interface {
	// Name identifies the trigger.
	Name() string
	// FireAfter reports the element count per key after which a pane
	// fires; zero means fire only at end of input.
	FireAfter() int
}

// AfterCount fires a pane for a key after every N elements.
type AfterCount struct {
	N int
}

// Name implements Trigger.
func (t AfterCount) Name() string { return fmt.Sprintf("AfterCount(%d)", t.N) }

// FireAfter implements Trigger.
func (t AfterCount) FireAfter() int { return t.N }

// EventTimeFn extracts an element's event timestamp from the element
// itself (e.g. a time column of the record payload). Engine runners
// erase flow timestamps at coder boundaries, so deterministic event-time
// windowing requires the time to be derivable from the element — exactly
// what a real pipeline does by re-stamping records with WithTimestamps
// before windowing.
type EventTimeFn func(elem any) (time.Time, error)

// WindowingStrategy combines a window fn with an optional trigger and,
// for event-time windowing, the element-derived timestamp extractor plus
// the stream's assumed out-of-orderness bound.
type WindowingStrategy struct {
	Fn      WindowFn
	Trigger Trigger
	// EventTime extracts event timestamps from elements. Required for
	// non-global windowing on the engine runners (which otherwise reject
	// the strategy); for a KV collection feeding GroupByKey it is applied
	// to the KV value. Nil falls back to the flow timestamp on the direct
	// runner.
	EventTime EventTimeFn
	// Bound is the watermark generator's assumed maximum event-time
	// out-of-orderness: panes fire once the watermark (max event time
	// seen minus Bound) passes a window's end, and always at end of
	// input.
	Bound time.Duration
}

// DefaultWindowing is the global-windows strategy without a trigger.
func DefaultWindowing() WindowingStrategy {
	return WindowingStrategy{Fn: GlobalWindows{}}
}

// IsGlobal reports whether the strategy uses global windows.
func (w WindowingStrategy) IsGlobal() bool {
	_, ok := w.Fn.(GlobalWindows)
	return ok || w.Fn == nil
}

// Key canonicalizes the strategy (window fn plus trigger) so transforms
// like Flatten can compare the windowing of their inputs.
func (w WindowingStrategy) Key() string {
	name := GlobalWindows{}.Name()
	if w.Fn != nil {
		name = w.Fn.Name()
	}
	if w.Trigger != nil {
		return name + "+" + w.Trigger.Name()
	}
	return name
}

// Triggering returns a copy of the strategy with the given trigger.
func (w WindowingStrategy) Triggering(t Trigger) WindowingStrategy {
	w.Trigger = t
	return w
}

// WithEventTime returns a copy of the strategy with the given
// element-derived timestamp extractor and out-of-orderness bound.
func (w WindowingStrategy) WithEventTime(fn EventTimeFn, bound time.Duration) WindowingStrategy {
	w.EventTime = fn
	w.Bound = bound
	return w
}
