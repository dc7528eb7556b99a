package watermark

import (
	"fmt"
	"slices"
	"time"
)

// Pane is one fired (window, key) aggregate.
type Pane[T any] struct {
	// Start and End bound the window: [Start, End), in UTC.
	Start, End time.Time
	// Key is the pane's grouping key.
	Key string
	// Acc is the final accumulator value.
	Acc T
}

// WindowState accumulates per-(window, key) state under any Assigner
// and fires panes once the watermark passes a window's end: tumbling
// windows assign each record to one pane, sliding windows to several
// overlapping panes.
//
// Firing order is deterministic given the record arrival order: windows
// fire ascending by (end, start), and keys within a window fire in
// first-seen order. Every engine uses this state, so their pane
// multisets agree whenever they observe the same records — the property
// behind the byte-identical sorted outputs of the windowed benchmark
// queries.
//
// A record behind the watermark is not dropped: it re-opens its window,
// which fires again — a second, partial pane — on the next FireReady.
//
// Instants are held as int64 Unix nanoseconds (see nanos for the range).
// A WindowState is owned by one goroutine, and emit callbacks must not
// call back into it.
type WindowState[T any] struct {
	assigner Assigner

	// The open windows are open[head:], ordered by (end, start) at
	// insert. The first is the next to fire, so a FireReady that has
	// nothing to do is one comparison. Firing advances head; the fired
	// slots in front are reclaimed once they outnumber the open windows,
	// which keeps a pop O(1) amortized however many windows are open.
	open []window[T]
	head int

	// Scratch reused by every Panes call.
	spans []span
	accs  []*T
}

// window is one open window's keyed accumulators in first-seen order.
type window[T any] struct {
	span  span
	panes []pane[T]
	// fired counts the panes at the front that were already emitted (a
	// window stays partly fired only after an emit error).
	fired int
	// index maps a key to its position in panes. Most windows hold a
	// handful of keys and are scanned instead; the index is built when a
	// window outgrows scanLimit.
	index map[string]int
}

// scanLimit is the pane count up to which a window finds keys by
// scanning: below it a scan beats hashing, and a map per window would be
// most of the state's allocations.
const scanLimit = 8

type pane[T any] struct {
	key string
	acc T
}

// NewWindowState returns empty state for the given assigner. The second
// parameter is unused and callers pass nil: it stays only so that the
// benchmark driver under bench/ compiles unchanged, and the ROADMAP's
// item 4 (the next change to that driver) drops it.
func NewWindowState[T any](a Assigner, _ func(into *T, from T)) (*WindowState[T], error) {
	if a == nil {
		return nil, fmt.Errorf("watermark: nil window assigner")
	}
	return &WindowState[T]{assigner: a}, nil
}

// Assigner returns the state's window assigner.
func (s *WindowState[T]) Assigner() Assigner { return s.assigner }

// Panes returns the accumulators of every window assigned to t for the
// given key, in ascending window start order, creating zero
// accumulators for new (window, key) pairs; the caller folds the record
// into each.
//
// The slice and the pointers in it are the state's scratch: they are
// valid until the next call on the state. The key is copied only when a
// pane is created, so a call that finds its panes allocates nothing.
func (s *WindowState[T]) Panes(t time.Time, key []byte) []*T {
	s.spans = s.assigner.appendSpans(s.spans[:0], Nanos(t))
	s.accs = s.accs[:0]
	for _, sp := range s.spans {
		i, ok := s.locate(sp)
		if !ok {
			i = s.insert(i, window[T]{span: sp})
		}
		s.accs = append(s.accs, s.open[i].acc(key))
	}
	return s.accs
}

// Upsert applies update to every accumulator Panes returns for t and
// key: the closure form of the same primitive.
func (s *WindowState[T]) Upsert(t time.Time, key string, update func(*T)) {
	for _, acc := range s.Panes(t, []byte(key)) {
		update(acc)
	}
}

// locate returns sp's index in s.open and whether it is open; when it is
// not, the index is where it belongs.
func (s *WindowState[T]) locate(sp span) (int, bool) {
	lo, hi := s.head, len(s.open)
	// In-order arrivals hit the newest window or open one behind it.
	if hi > lo {
		switch last := s.open[hi-1].span; {
		case last == sp:
			return hi - 1, true
		case last.less(sp):
			return hi, false
		}
		hi--
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.open[mid].span.less(sp) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s.open) && s.open[lo].span == sp
}

// insert opens w at index i of s.open and returns where it ended up. It
// moves whichever side of i is shorter — the older windows into a fired
// slot in front when there is one, the newer ones toward the end
// otherwise — so a window costs its distance from the nearer end: none
// for in-order arrivals, and little for a lagging input that fills in
// windows just ahead of the watermark.
func (s *WindowState[T]) insert(i int, w window[T]) int {
	if s.head > 0 && i-s.head < len(s.open)-i {
		copy(s.open[s.head-1:], s.open[s.head:i])
		s.head--
		i--
		s.open[i] = w
		return i
	}
	s.open = slices.Insert(s.open, i, w)
	return i
}

// acc returns key's accumulator in w, appending a zero one for a key
// the window has not seen (or has already fired).
func (w *window[T]) acc(key []byte) *T {
	if w.index != nil {
		if i, ok := w.index[string(key)]; ok {
			return &w.panes[i].acc
		}
	} else {
		for i := w.fired; i < len(w.panes); i++ {
			if w.panes[i].key == string(key) {
				return &w.panes[i].acc
			}
		}
	}
	k := string(key)
	w.panes = append(w.panes, pane[T]{key: k})
	last := len(w.panes) - 1
	switch {
	case w.index != nil:
		w.index[k] = last
	case last-w.fired >= scanLimit:
		w.index = make(map[string]int, 2*scanLimit)
		for i := w.fired; i <= last; i++ {
			w.index[w.panes[i].key] = i
		}
	}
	return &w.panes[last].acc
}

// FireReady emits and removes every pane of windows the watermark has
// passed (watermark >= window end), in the deterministic order. It
// stops on the first emit error, leaving the failed pane and every
// later one in place for a retry.
func (s *WindowState[T]) FireReady(w time.Time, emit func(Pane[T]) error) error {
	wm := Nanos(w)
	for s.head < len(s.open) && s.open[s.head].span.end <= wm {
		if err := s.open[s.head].fire(emit); err != nil {
			return err
		}
		s.open[s.head] = window[T]{}
		s.head++
	}
	if s.head > 0 && s.head >= len(s.open)-s.head {
		n := copy(s.open, s.open[s.head:])
		clear(s.open[n:])
		s.open, s.head = s.open[:n], 0
	}
	return nil
}

// fire emits w's unfired panes in first-seen key order.
func (w *window[T]) fire(emit func(Pane[T]) error) error {
	start, end := FromNanos(w.span.start), FromNanos(w.span.end)
	for ; w.fired < len(w.panes); w.fired++ {
		p := &w.panes[w.fired]
		if err := emit(Pane[T]{Start: start, End: end, Key: p.key, Acc: p.acc}); err != nil {
			return err
		}
		if w.index != nil {
			delete(w.index, p.key)
		}
		*p = pane[T]{}
	}
	return nil
}

// FireAll emits and removes every remaining pane in the deterministic
// order; callers use it at end of input after finalizing the watermark.
func (s *WindowState[T]) FireAll(emit func(Pane[T]) error) error {
	return s.FireReady(EndOfTime, emit)
}

// Open reports how many windows currently hold state.
func (s *WindowState[T]) Open() int { return len(s.open) - s.head }
