package watermark

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// Span is a window in the time.Time form the oracle works in.
type Span struct {
	Start, End time.Time
}

// assign returns the windows a assigns to t, as Spans.
func assign(a Assigner, t time.Time) []Span {
	var out []Span
	for _, sp := range a.appendSpans(nil, Nanos(t)) {
		out = append(out, Span{Start: FromNanos(sp.start), End: FromNanos(sp.end)})
	}
	return out
}

// oracleState is the window state as it was before the open windows
// were kept ordered: spans are time.Time pairs, and windows live in a
// map and are sorted at every FireReady. It survives as the reference
// the differential test below holds WindowState to.
type oracleState[T any] struct {
	assigner Assigner

	windows map[Span]*oracleGroup[T]
	spans   []Span
}

type oracleGroup[T any] struct {
	byKey map[string]*T
	order []string
}

func newOracleState[T any](a Assigner) *oracleState[T] {
	return &oracleState[T]{assigner: a, windows: make(map[Span]*oracleGroup[T])}
}

// oracleAssign is window assignment in time.Time arithmetic.
func oracleAssign(a Assigner, t time.Time) []Span {
	switch a := a.(type) {
	case TumblingAssigner:
		start := t.Truncate(a.Size)
		return []Span{{Start: start, End: start.Add(a.Size)}}
	case SlidingAssigner:
		var spans []Span
		for start := t.Truncate(a.Slide); start.After(t.Add(-a.Size)); start = start.Add(-a.Slide) {
			spans = append(spans, Span{Start: start, End: start.Add(a.Size)})
		}
		slices.Reverse(spans)
		return spans
	}
	panic(fmt.Sprintf("oracle: unknown assigner %T", a))
}

func (s *oracleState[T]) Upsert(t time.Time, key string, update func(*T)) {
	for _, span := range oracleAssign(s.assigner, t) {
		g, ok := s.windows[span]
		if !ok {
			g = &oracleGroup[T]{byKey: make(map[string]*T)}
			s.windows[span] = g
			s.spans = append(s.spans, span)
		}
		acc, ok := g.byKey[key]
		if !ok {
			acc = new(T)
			g.byKey[key] = acc
			g.order = append(g.order, key)
		}
		update(acc)
	}
}

func (s *oracleState[T]) FireReady(w time.Time, emit func(Pane[T]) error) error {
	sort.Slice(s.spans, func(i, j int) bool {
		if !s.spans[i].End.Equal(s.spans[j].End) {
			return s.spans[i].End.Before(s.spans[j].End)
		}
		return s.spans[i].Start.Before(s.spans[j].Start)
	})
	for len(s.spans) > 0 {
		span := s.spans[0]
		if w.Before(span.End) {
			break
		}
		g := s.windows[span]
		for len(g.order) > 0 {
			key := g.order[0]
			if err := emit(Pane[T]{Start: span.Start, End: span.End, Key: key, Acc: *g.byKey[key]}); err != nil {
				return err
			}
			g.order = g.order[1:]
			delete(g.byKey, key)
		}
		delete(s.windows, span)
		s.spans = s.spans[1:]
	}
	return nil
}

func (s *oracleState[T]) Open() int { return len(s.windows) }

// TestWindowStateMatchesSortAtFireOracle drives WindowState and the
// oracle with the same generated operations — upserts whose event times
// run in order, jitter within a bound, fall behind the watermark or
// repeat, interleaved with FireReady at watermarks that move both ways
// and with emit errors followed by a retry — and requires the identical
// pane sequence, emit for emit, and the identical Open() after every
// step. The accumulator is the list of record ordinals, so a different
// arrival order shows as a different pane.
func TestWindowStateMatchesSortAtFireOracle(t *testing.T) {
	tumbling := func(size time.Duration) Assigner { return must(NewTumblingAssigner(size)) }
	sliding := func(size, slide time.Duration) Assigner { return must(NewSlidingAssigner(size, slide)) }

	for _, tc := range []struct {
		name     string
		assigner Assigner
		step     time.Duration // mean event-time advance per record
		keys     int
	}{
		{"tumbling-1s", tumbling(time.Second), 400 * time.Millisecond, 3},
		{"tumbling-1s-crowded", tumbling(time.Second), 20 * time.Millisecond, 3 * scanLimit},
		{"tumbling-250ms", tumbling(250 * time.Millisecond), 100 * time.Millisecond, 2},
		// 7s does not divide the zero time's distance to the epoch:
		// windows align to the zero time, as time.Time.Truncate does.
		{"tumbling-7s", tumbling(7 * time.Second), 2 * time.Second, 3},
		{"sliding-2s/1s", sliding(2*time.Second, time.Second), 300 * time.Millisecond, 3},
		{"sliding-3s/2s", sliding(3*time.Second, 2*time.Second), 500 * time.Millisecond, 2 * scanLimit},
		{"sliding-1s/300ms", sliding(time.Second, 300*time.Millisecond), 120 * time.Millisecond, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				runOracleCase(t, tc.assigner, tc.step, tc.keys, seed)
			}
		})
	}
}

func runOracleCase(t *testing.T, a Assigner, step time.Duration, keys int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	got, err := NewWindowState[[]int](a, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := newOracleState[[]int](a)

	// fire runs FireReady on both states, failing the emit numbered
	// failAt (none when negative), and returns what each emitted.
	boom := errors.New("boom")
	fire := func(w time.Time, failAt int) (gotPanes, wantPanes []string, gotErr, wantErr error) {
		collect := func(into *[]string) func(Pane[[]int]) error {
			return func(p Pane[[]int]) error {
				if len(*into) == failAt {
					return boom
				}
				*into = append(*into, fmt.Sprintf("[%d,%d) %s=%v", p.Start.UnixNano(), p.End.UnixNano(), p.Key, p.Acc))
				return nil
			}
		}
		gotErr = got.FireReady(w, collect(&gotPanes))
		wantErr = want.FireReady(w, collect(&wantPanes))
		return
	}

	now := epoch // the newest event time generated
	wm := epoch  // the last finite watermark fired at
	for op := 0; op < 400; op++ {
		if rng.Intn(4) > 0 {
			var et time.Time
			switch r := rng.Intn(10); {
			case r < 5: // in order
				now = now.Add(time.Duration(rng.Int63n(int64(2 * step))))
				et = now
			case r < 7: // a duplicate of the newest event time
				et = now
			case r < 9: // out of order within a bound
				et = now.Add(-time.Duration(rng.Int63n(int64(4 * step))))
			default: // behind the watermark: re-opens a fired window
				et = wm.Add(-time.Duration(rng.Int63n(int64(6 * step))))
			}
			key := fmt.Sprintf("k%d", rng.Intn(keys))
			got.Upsert(et, key, func(acc *[]int) { *acc = append(*acc, op) })
			want.Upsert(et, key, func(acc *[]int) { *acc = append(*acc, op) })
		} else {
			// Mostly trailing the newest event time, sometimes ahead of
			// it or regressing, now and then everything.
			wm = now.Add(time.Duration(rng.Int63n(int64(8*step))) - time.Duration(6*step))
			w := wm
			if rng.Intn(40) == 0 {
				w = EndOfTime
			}
			failAt := -1
			if rng.Intn(3) == 0 {
				failAt = rng.Intn(4)
			}
			gotPanes, wantPanes, gotErr, wantErr := fire(w, failAt)
			if !slices.Equal(gotPanes, wantPanes) || !errors.Is(gotErr, wantErr) {
				t.Fatalf("seed %d op %d: FireReady(%v) failing emit %d\n got %v (err %v)\nwant %v (err %v)",
					seed, op, w, failAt, gotPanes, gotErr, wantPanes, wantErr)
			}
			if gotErr != nil {
				if got.Open() != want.Open() {
					t.Fatalf("seed %d op %d: Open() after the emit error = %d, want %d", seed, op, got.Open(), want.Open())
				}
				gotPanes, wantPanes, gotErr, wantErr = fire(w, -1)
				if !slices.Equal(gotPanes, wantPanes) || gotErr != nil || wantErr != nil {
					t.Fatalf("seed %d op %d: retry of FireReady(%v)\n got %v (err %v)\nwant %v (err %v)",
						seed, op, w, gotPanes, gotErr, wantPanes, wantErr)
				}
			}
		}
		if got.Open() != want.Open() {
			t.Fatalf("seed %d op %d: Open() = %d, want %d", seed, op, got.Open(), want.Open())
		}
	}
	gotPanes, wantPanes, gotErr, wantErr := fire(EndOfTime, -1)
	if !slices.Equal(gotPanes, wantPanes) || gotErr != nil || wantErr != nil {
		t.Fatalf("seed %d: final FireAll\n got %v (err %v)\nwant %v (err %v)", seed, gotPanes, gotErr, wantPanes, wantErr)
	}
	if got.Open() != 0 || want.Open() != 0 {
		t.Fatalf("seed %d: Open() after FireAll = %d (oracle %d), want 0", seed, got.Open(), want.Open())
	}
}
