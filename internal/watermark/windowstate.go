package watermark

import (
	"fmt"
	"math"
	"slices"
	"sort"
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
// overlapping panes, and session windows to a key-local pane that
// merges with overlapping sessions as records arrive (in any order).
//
// Firing order is deterministic given the record arrival order: windows
// fire ascending by (end, start), and keys within a non-merging window
// fire in first-seen order; merged sessions fire ascending by
// (start, end) with ties broken by key first-seen order. Every engine
// uses this state, so their pane multisets agree whenever they observe
// the same records — the property behind the byte-identical sorted
// outputs of the windowed benchmark queries.
//
// A record behind the watermark is not dropped: it re-opens its window,
// which fires again — a second, partial pane — on the next FireReady.
//
// Instants are held as int64 Unix nanoseconds (see nanos for the range).
// A WindowState is owned by one goroutine, and emit callbacks must not
// call back into it.
type WindowState[T any] struct {
	assigner Assigner
	merges   bool // assigner.Merges(): which of the two representations below is in use
	merge    func(into *T, from T)

	// Non-merging representation: the open windows are open[head:],
	// ordered by (end, start) at insert. The first is the next to fire,
	// so a FireReady that has nothing to do is one comparison. Firing
	// advances head; the fired slots in front are reclaimed once they
	// outnumber the open windows, which keeps a pop O(1) amortized
	// however many windows are open.
	open []window[T]
	head int

	// Merging representation: per-key session intervals. Entries stay
	// after a key's last session fired; they carry its first-seen rank.
	sessions map[string]*keySessions[T]
	// sessionDue is a lower bound on the earliest open session end
	// (sessions only grow, so the bound survives merges).
	sessionDue int64

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

// keySessions is one key's open sessions: disjoint, not abutting,
// ascending by start.
type keySessions[T any] struct {
	rank int // the key's first-seen rank, the firing tie-break
	open []*session[T]
}

// session is one key's merged interval and accumulator.
type session[T any] struct {
	span span
	acc  T
}

// NewWindowState returns empty state for the given assigner. merge
// combines two accumulators when session windows coalesce; it is
// required for merging assigners and ignored otherwise.
func NewWindowState[T any](a Assigner, merge func(into *T, from T)) (*WindowState[T], error) {
	if a == nil {
		return nil, fmt.Errorf("watermark: nil window assigner")
	}
	if a.Merges() && merge == nil {
		return nil, fmt.Errorf("watermark: assigner %s merges windows but no merge fn was given", a.Name())
	}
	return &WindowState[T]{
		assigner:   a,
		merges:     a.Merges(),
		merge:      merge,
		sessions:   make(map[string]*keySessions[T]),
		sessionDue: math.MaxInt64,
	}, nil
}

// Assigner returns the state's window assigner.
func (s *WindowState[T]) Assigner() Assigner { return s.assigner }

// Panes returns the accumulators of every window assigned to t for the
// given key, in ascending window start order, creating zero
// accumulators for new (window, key) pairs; the caller folds the record
// into each. Under a merging assigner the record's proto-session first
// coalesces with every overlapping or abutting session of the same key
// and the one merged accumulator is returned.
//
// The slice and the pointers in it are the state's scratch: they are
// valid until the next call on the state. The key is copied only when a
// pane is created, so a call that finds its panes allocates nothing.
func (s *WindowState[T]) Panes(t time.Time, key []byte) []*T {
	s.spans = s.assigner.appendSpans(s.spans[:0], Nanos(t))
	s.accs = s.accs[:0]
	if s.merges {
		s.accs = append(s.accs, s.sessionAcc(s.spans[0], key))
		return s.accs
	}
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

// sessionAcc merges proto with the key's sessions it overlaps or abuts
// and returns the merged session's accumulator.
func (s *WindowState[T]) sessionAcc(proto span, key []byte) *T {
	ks, ok := s.sessions[string(key)]
	if !ok {
		ks = &keySessions[T]{rank: len(s.sessions)}
		s.sessions[string(key)] = ks
	}
	// The key's sessions are disjoint and ordered, so the ones proto
	// touches are one run [lo, hi).
	lo := 0
	for lo < len(ks.open) && ks.open[lo].span.end < proto.start {
		lo++
	}
	hi := lo
	for hi < len(ks.open) && ks.open[hi].span.start <= proto.end {
		hi++
	}
	// Coalesce into a zero accumulator ascending by start, so
	// non-commutative accumulators see a deterministic merge order
	// regardless of arrival order.
	merged := &session[T]{span: proto}
	for _, sess := range ks.open[lo:hi] {
		merged.span.start = min(merged.span.start, sess.span.start)
		merged.span.end = max(merged.span.end, sess.span.end)
		s.merge(&merged.acc, sess.acc)
	}
	ks.open = slices.Replace(ks.open, lo, hi, merged)
	s.sessionDue = min(s.sessionDue, merged.span.end)
	return &merged.acc
}

// FireReady emits and removes every pane of windows the watermark has
// passed (watermark >= window end), in the deterministic order. It
// stops on the first emit error, leaving the failed pane and every
// later one in place for a retry.
func (s *WindowState[T]) FireReady(w time.Time, emit func(Pane[T]) error) error {
	wm := Nanos(w)
	if s.merges {
		return s.fireSessions(wm, emit)
	}
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

func (s *WindowState[T]) fireSessions(wm int64, emit func(Pane[T]) error) error {
	if wm < s.sessionDue {
		return nil
	}
	type ready struct {
		key  string
		ks   *keySessions[T]
		sess *session[T]
	}
	var due []ready
	next := int64(math.MaxInt64)
	for key, ks := range s.sessions {
		for _, sess := range ks.open {
			if sess.span.end <= wm {
				due = append(due, ready{key: key, ks: ks, sess: sess})
			} else {
				next = min(next, sess.span.end)
			}
		}
	}
	sort.Slice(due, func(i, j int) bool {
		a, b := due[i].sess.span, due[j].sess.span
		if a.start != b.start {
			return a.start < b.start
		}
		if a.end != b.end {
			return a.end < b.end
		}
		return due[i].ks.rank < due[j].ks.rank
	})
	for _, r := range due {
		p := Pane[T]{Start: FromNanos(r.sess.span.start), End: FromNanos(r.sess.span.end), Key: r.key, Acc: r.sess.acc}
		if err := emit(p); err != nil {
			return err // sessionDue still admits the retry
		}
		i := slices.Index(r.ks.open, r.sess)
		r.ks.open = slices.Delete(r.ks.open, i, i+1)
	}
	s.sessionDue = next
	return nil
}

// FireAll emits and removes every remaining pane in the deterministic
// order; callers use it at end of input after finalizing the watermark.
func (s *WindowState[T]) FireAll(emit func(Pane[T]) error) error {
	return s.FireReady(EndOfTime, emit)
}

// Open reports how many windows (or sessions) currently hold state.
func (s *WindowState[T]) Open() int {
	if !s.merges {
		return len(s.open) - s.head
	}
	n := 0
	for _, ks := range s.sessions {
		n += len(ks.open)
	}
	return n
}
