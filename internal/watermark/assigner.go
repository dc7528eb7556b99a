package watermark

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// span is one window's half-open interval [start, end) in Unix
// nanoseconds, the form the window state orders, compares and looks
// windows up by: two words instead of two 24-byte time.Time values with
// a *Location each.
type span struct {
	start, end int64
}

// less orders spans by (end, start), the firing order.
func (a span) less(b span) bool {
	if a.end != b.end {
		return a.end < b.end
	}
	return a.start < b.start
}

// startOfTime is the earliest instant the int64 form represents;
// EndOfTime is the latest.
var startOfTime = time.Unix(0, math.MinInt64)

// Nanos converts t to Unix nanoseconds, the int64 form window state
// keeps instants in and a runtime may carry watermarks in. Instants
// outside the int64 range (before 1677-09-21 or after 2262-04-11)
// saturate to its ends; EndOfTime maps to MaxInt64 exactly, the zero
// time.Time to MinInt64.
func Nanos(t time.Time) int64 {
	switch {
	case t.Before(startOfTime):
		return math.MinInt64
	case t.After(EndOfTime):
		return math.MaxInt64
	}
	return t.UnixNano()
}

// FromNanos is the inverse of Nanos, in UTC.
func FromNanos(ns int64) time.Time { return time.Unix(0, ns).UTC() }

// satAdd returns a+b, saturating at the int64 range instead of
// wrapping, so windows touching the ends of time stay ordered.
func satAdd(a, b int64) int64 {
	c := a + b
	switch {
	case b > 0 && c < a:
		return math.MaxInt64
	case b < 0 && c > a:
		return math.MinInt64
	}
	return c
}

// zeroTimeHi:zeroTimeLo is the 128-bit distance in nanoseconds from the
// zero time.Time (January 1, year 1) to the Unix epoch.
const (
	zeroTimeNs = 62135596800 * 1_000_000_000
	zeroTimeHi = zeroTimeNs >> 64
	zeroTimeLo = zeroTimeNs & (1<<64 - 1)
)

// truncate rounds ns down to a multiple of d counted from the zero
// time.Time — exactly time.Time.Truncate, which defines the window
// boundaries. For every d that divides the zero time's distance to the
// Unix epoch (719162 whole days, so any divisor of a day) that is plain
// epoch alignment.
func truncate(ns, d int64) int64 {
	r := ns % d
	if r < 0 {
		r += d
	}
	_, z := bits.Div64(zeroTimeHi%uint64(d), zeroTimeLo, uint64(d))
	return satAdd(ns, -int64((uint64(r)+z)%uint64(d)))
}

// Assigner maps an event time to the set of windows containing it — the
// window-assignment half of a windowing strategy. Tumbling windows
// assign one window per record, sliding windows several overlapping
// ones; either way the windows are the same for every key. The two
// implementations live in this package; the interface is closed.
type Assigner interface {
	// Name labels the assigner for errors and plan rendering.
	Name() string

	// appendSpans appends the windows containing the instant ns to dst,
	// in ascending start order. The window state passes a buffer it
	// reuses for every record.
	appendSpans(dst []span, ns int64) []span
}

// TumblingAssigner assigns fixed, non-overlapping windows of Size
// aligned as time.Time.Truncate aligns (to the epoch for every size that
// divides a day) — the FixedWindows strategy.
type TumblingAssigner struct {
	Size time.Duration
}

// NewTumblingAssigner validates the size.
func NewTumblingAssigner(size time.Duration) (TumblingAssigner, error) {
	if size <= 0 {
		return TumblingAssigner{}, fmt.Errorf("watermark: tumbling window size must be positive, got %v", size)
	}
	return TumblingAssigner{Size: size}, nil
}

// appendSpans appends the single window containing ns.
func (a TumblingAssigner) appendSpans(dst []span, ns int64) []span {
	start := truncate(ns, int64(a.Size))
	return append(dst, span{start: start, end: satAdd(start, int64(a.Size))})
}

// Name labels the assigner.
func (a TumblingAssigner) Name() string { return fmt.Sprintf("tumbling(%v)", a.Size) }

// SlidingAssigner assigns overlapping windows of Size every Slide,
// aligned like tumbling windows of Slide. A record belongs to ceil(Size/Slide) windows
// or one fewer. Slide need not divide Size.
type SlidingAssigner struct {
	Size, Slide time.Duration
}

// NewSlidingAssigner validates size and slide.
func NewSlidingAssigner(size, slide time.Duration) (SlidingAssigner, error) {
	if size <= 0 || slide <= 0 {
		return SlidingAssigner{}, fmt.Errorf("watermark: sliding window size and slide must be positive, got %v/%v", size, slide)
	}
	if slide > size {
		return SlidingAssigner{}, fmt.Errorf("watermark: slide %v exceeds size %v (gaps would drop records)", slide, size)
	}
	return SlidingAssigner{Size: size, Slide: slide}, nil
}

// appendSpans appends every window [start, start+Size) with start
// aligned to Slide and start in (ns−Size, ns], ascending by start.
func (a SlidingAssigner) appendSpans(dst []span, ns int64) []span {
	size, slide := int64(a.Size), int64(a.Slide)
	last := truncate(ns, slide)
	// The windows are last, last−slide, ... while start > ns−size: with
	// room = size − (ns−last) in (0, size], the first ceil(room/slide).
	room := size - (ns - last)
	for k := (room+slide-1)/slide - 1; k >= 0; k-- {
		start := satAdd(last, -k*slide)
		sp := span{start: start, end: satAdd(start, size)}
		if n := len(dst); n > 0 && dst[n-1] == sp {
			continue // starts saturated at the beginning of time: one window, once
		}
		dst = append(dst, sp)
	}
	return dst
}

// Name labels the assigner.
func (a SlidingAssigner) Name() string { return fmt.Sprintf("sliding(%v/%v)", a.Size, a.Slide) }
