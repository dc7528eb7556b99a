package watermark

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

func TestAssignerValidation(t *testing.T) {
	if _, err := NewTumblingAssigner(0); err == nil {
		t.Error("zero tumbling size accepted")
	}
	if _, err := NewTumblingAssigner(-time.Second); err == nil {
		t.Error("negative tumbling size accepted")
	}
	if _, err := NewSlidingAssigner(0, time.Second); err == nil {
		t.Error("zero sliding size accepted")
	}
	if _, err := NewSlidingAssigner(time.Second, 0); err == nil {
		t.Error("zero slide accepted")
	}
	if _, err := NewSlidingAssigner(time.Second, 2*time.Second); err == nil {
		t.Error("slide exceeding size accepted (would drop records)")
	}
}

// checkSpans asserts the assigner invariants every caller relies on:
// ascending start order and every span containing t (half-open).
func checkSpans(t *testing.T, spans []Span, at time.Time) {
	t.Helper()
	for i, s := range spans {
		if at.Before(s.Start) || !at.Before(s.End) {
			t.Errorf("span %d [%v, %v) does not contain %v", i, s.Start, s.End, at)
		}
		if i > 0 && !spans[i-1].Start.Before(s.Start) {
			t.Errorf("spans not ascending: %v then %v", spans[i-1].Start, s.Start)
		}
	}
}

// TestSlidingAssignSlideNotDividingSize covers the non-divisor case:
// with size 3s and slide 2s a record belongs to one or two windows
// depending on where it falls relative to the 2s-aligned starts.
func TestSlidingAssignSlideNotDividingSize(t *testing.T) {
	a, err := NewSlidingAssigner(3*time.Second, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		offset time.Duration
		want   int
	}{
		{5 * time.Second, 1}, // only [4,7): [2,5) is half-open and excludes 5
		{6 * time.Second, 2}, // [4,7) and [6,9)
		{7 * time.Second, 1}, // only [6,9)
	} {
		at := epoch.Add(tc.offset)
		spans := assign(a, at)
		if len(spans) != tc.want {
			t.Errorf("Assign(epoch+%v) = %d windows %v, want %d", tc.offset, len(spans), spans, tc.want)
		}
		checkSpans(t, spans, at)
	}
}

// TestSlidingAssignEpochAlignedBoundary pins the half-open boundary
// semantics: a record exactly on a slide boundary starts a new window
// and has left the window ending there.
func TestSlidingAssignEpochAlignedBoundary(t *testing.T) {
	a, err := NewSlidingAssigner(2*time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	at := epoch.Add(5 * time.Second)
	spans := assign(a, at)
	if len(spans) != 2 {
		t.Fatalf("Assign = %v, want 2 windows", spans)
	}
	if !spans[0].Start.Equal(epoch.Add(4*time.Second)) || !spans[1].Start.Equal(epoch.Add(5*time.Second)) {
		t.Errorf("window starts = %v/%v, want epoch+4s/epoch+5s", spans[0].Start, spans[1].Start)
	}
	checkSpans(t, spans, at)
}

// TestAssignSubSecondWindows exercises sub-second sizes: windows are
// not constrained to whole seconds, and tumbling truncation stays
// aligned at millisecond granularity.
func TestAssignSubSecondWindows(t *testing.T) {
	tum, err := NewTumblingAssigner(250 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	at := epoch.Add(249 * time.Millisecond)
	spans := assign(tum, at)
	if len(spans) != 1 || !spans[0].Start.Equal(epoch) {
		t.Errorf("tumbling Assign = %v, want one window at epoch", spans)
	}
	checkSpans(t, spans, at)
	if next := assign(tum, epoch.Add(250*time.Millisecond)); !next[0].Start.Equal(epoch.Add(250 * time.Millisecond)) {
		t.Errorf("boundary record window = %v, want start epoch+250ms", next[0].Start)
	}

	sl, err := NewSlidingAssigner(500*time.Millisecond, 250*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	at = epoch.Add(625 * time.Millisecond)
	spans = assign(sl, at)
	if len(spans) != 2 {
		t.Fatalf("sliding Assign = %v, want 2 windows", spans)
	}
	if !spans[0].Start.Equal(epoch.Add(250*time.Millisecond)) || !spans[1].Start.Equal(epoch.Add(500*time.Millisecond)) {
		t.Errorf("sliding starts = %v/%v, want epoch+250ms/epoch+500ms", spans[0].Start, spans[1].Start)
	}
	checkSpans(t, spans, at)
}

// TestAssignMatchesTimeArithmetic holds the integer window arithmetic to
// the time.Time arithmetic it replaced (oracleAssign), on sizes that do
// and do not divide a second, a day, or the zero time's distance to the
// Unix epoch, and on instants on both sides of that epoch.
func TestAssignMatchesTimeArithmetic(t *testing.T) {
	var assigners []Assigner
	for _, size := range []time.Duration{1, 7, 250 * time.Millisecond, time.Second, 7 * time.Second,
		1001 * time.Millisecond, 13 * time.Hour, 24 * time.Hour, 31 * 24 * time.Hour} {
		tum, err := NewTumblingAssigner(size)
		if err != nil {
			t.Fatal(err)
		}
		assigners = append(assigners, tum)
		for _, div := range []time.Duration{1, 2, 3, 5} {
			if size/div == 0 {
				continue
			}
			sl, err := NewSlidingAssigner(size, size/div)
			if err != nil {
				t.Fatal(err)
			}
			assigners = append(assigners, sl)
		}
	}

	rng := rand.New(rand.NewSource(1))
	bases := []time.Time{epoch, time.Unix(0, 0), time.Date(1969, time.July, 20, 20, 17, 40, 0, time.UTC), time.Date(2200, time.January, 1, 0, 0, 0, 0, time.UTC)}
	for _, a := range assigners {
		for _, base := range bases {
			for i := 0; i < 200; i++ {
				at := base.Add(time.Duration(rng.Int63n(int64(100 * 24 * time.Hour))))
				if i%10 == 0 {
					at = at.Truncate(time.Second) // land on boundaries too
				}
				got, want := assign(a, at), oracleAssign(a, at)
				if len(got) != len(want) {
					t.Fatalf("%s assigns %v to %v, want %v", a.Name(), at, got, want)
				}
				for j := range got {
					if !got[j].Start.Equal(want[j].Start) || !got[j].End.Equal(want[j].End) {
						t.Fatalf("%s assigns %v to %v, want %v", a.Name(), at, got, want)
					}
				}
			}
		}
	}
}

// TestWindowsAtTheEndsOfTime pins what the int64 form does where it runs
// out: instants beyond its range saturate, windows reaching past either
// end are cut off there (and those that collapse into one count a record
// once), and the end-of-input watermark still releases all of them.
func TestWindowsAtTheEndsOfTime(t *testing.T) {
	if got := Nanos(time.Time{}); got != math.MinInt64 {
		t.Errorf("Nanos(zero time) = %d, want MinInt64", got)
	}
	if got := Nanos(EndOfTime); got != math.MaxInt64 {
		t.Errorf("Nanos(EndOfTime) = %d, want MaxInt64", got)
	}
	if got := Nanos(EndOfTime.Add(time.Hour)); got != math.MaxInt64 {
		t.Errorf("Nanos(past EndOfTime) = %d, want MaxInt64", got)
	}
	if !FromNanos(Nanos(epoch)).Equal(epoch) {
		t.Errorf("FromNanos(Nanos(epoch)) = %v, want %v", FromNanos(Nanos(epoch)), epoch)
	}

	a, err := NewSlidingAssigner(2*time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWindowState[int64](a, nil)
	if err != nil {
		t.Fatal(err)
	}
	inc := func(c *int64) { *c++ }
	s.Upsert(time.Time{}, "first", inc)
	s.Upsert(epoch, "u", inc)
	s.Upsert(EndOfTime, "last", inc)
	if err := s.FireReady(time.Time{}, func(p Pane[int64]) error {
		return fmt.Errorf("pane %v fired at the zero watermark", p)
	}); err != nil {
		t.Error(err)
	}
	var keys []string
	if err := s.FireAll(func(p Pane[int64]) error {
		if p.End.After(EndOfTime) || !p.Start.Before(p.End) {
			t.Errorf("pane %s spans [%v, %v)", p.Key, p.Start, p.End)
		}
		if p.Acc != 1 {
			t.Errorf("pane %s [%v, %v) counts %d records, want 1", p.Key, p.Start, p.End, p.Acc)
		}
		keys = append(keys, p.Key)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"first", "u", "u", "last", "last"}; !slices.Equal(keys, want) {
		t.Errorf("FireAll keys = %v, want %v", keys, want)
	}
	if s.Open() != 0 {
		t.Errorf("open windows after FireAll = %d, want 0", s.Open())
	}
}

// TestSlidingStateOverlappingPanes runs the sliding assigner through
// the shared window state: one record contributes to every overlapping
// pane, and panes fire ascending by (end, start) as the watermark
// advances — the exact behavior the SlidingSum query deploys.
func TestSlidingStateOverlappingPanes(t *testing.T) {
	a, err := NewSlidingAssigner(2*time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWindowState[int64](a, nil)
	if err != nil {
		t.Fatal(err)
	}
	add := func(v int64) func(*int64) { return func(c *int64) { *c += v } }
	s.Upsert(epoch.Add(1500*time.Millisecond), "u", add(3))
	s.Upsert(epoch.Add(2200*time.Millisecond), "u", add(5))

	var fired []string
	pane := func(p Pane[int64]) error {
		fired = append(fired, fmt.Sprintf("%v:%s=%d", p.Start.Sub(epoch), p.Key, p.Acc))
		return nil
	}
	// Watermark at 2s: only [0,2) is complete; the record at 1.5s also
	// lives in the still-open [1,3).
	if err := s.FireReady(epoch.Add(2*time.Second), pane); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(fired) != fmt.Sprint([]string{"0s:u=3"}) {
		t.Fatalf("panes at wm 2s = %v, want [0s:u=3]", fired)
	}
	fired = nil
	if err := s.FireAll(pane); err != nil {
		t.Fatal(err)
	}
	want := []string{"1s:u=8", "2s:u=5"}
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Errorf("remaining panes = %v, want %v", fired, want)
	}
}
