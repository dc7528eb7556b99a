package watermark

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// newTumbling returns count state over 1-second tumbling windows.
func newTumbling(t *testing.T) *WindowState[int64] {
	t.Helper()
	a, err := NewTumblingAssigner(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWindowState[int64](a, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func collectPanes(t *testing.T, s *WindowState[int64], w time.Time) []string {
	t.Helper()
	var out []string
	err := s.FireReady(w, func(p Pane[int64]) error {
		out = append(out, fmt.Sprintf("%d:%s=%d", p.Start.Unix(), p.Key, p.Acc))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestWindowStateFiresInWindowThenFirstSeenOrder(t *testing.T) {
	s := newTumbling(t)
	inc := func(c *int64) { *c++ }
	// Feed out of window order; keys b then a within the first window.
	s.Upsert(epoch.Add(2500*time.Millisecond), "z", inc)
	s.Upsert(epoch.Add(100*time.Millisecond), "b", inc)
	s.Upsert(epoch.Add(200*time.Millisecond), "a", inc)
	s.Upsert(epoch.Add(900*time.Millisecond), "b", inc)

	if got := collectPanes(t, s, epoch.Add(999*time.Millisecond)); len(got) != 0 {
		t.Fatalf("fired %v before the watermark passed any window end", got)
	}
	got := collectPanes(t, s, epoch.Add(time.Second))
	want := []string{
		fmt.Sprintf("%d:b=2", epoch.Unix()),
		fmt.Sprintf("%d:a=1", epoch.Unix()),
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("panes = %v, want %v", got, want)
	}
	if s.Open() != 1 {
		t.Errorf("open windows = %d, want 1", s.Open())
	}

	var rest []string
	if err := s.FireAll(func(p Pane[int64]) error {
		rest = append(rest, fmt.Sprintf("%d:%s=%d", p.Start.Unix(), p.Key, p.Acc))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(rest) != 1 || rest[0] != fmt.Sprintf("%d:z=1", epoch.Add(2*time.Second).Unix()) {
		t.Errorf("FireAll = %v", rest)
	}
	if s.Open() != 0 {
		t.Errorf("open windows after FireAll = %d, want 0", s.Open())
	}
}

func TestWindowStateMultipleReadyWindowsFireAscending(t *testing.T) {
	s := newTumbling(t)
	inc := func(c *int64) { *c++ }
	// Insert windows in descending order.
	for i := 4; i >= 0; i-- {
		s.Upsert(epoch.Add(time.Duration(i)*time.Second), fmt.Sprintf("k%d", i), inc)
	}
	got := collectPanes(t, s, epoch.Add(5*time.Second))
	if len(got) != 5 {
		t.Fatalf("fired %d panes, want 5", len(got))
	}
	for i, pane := range got {
		want := fmt.Sprintf("%d:k%d=1", epoch.Add(time.Duration(i)*time.Second).Unix(), i)
		if pane != want {
			t.Errorf("pane %d = %q, want %q (ascending window order)", i, pane, want)
		}
	}
}

func TestWindowStateEmitErrorKeepsUnfiredPanes(t *testing.T) {
	s := newTumbling(t)
	inc := func(c *int64) { *c++ }
	s.Upsert(epoch, "a", inc)
	s.Upsert(epoch, "b", inc)
	boom := errors.New("boom")
	calls := 0
	err := s.FireAll(func(Pane[int64]) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 1 {
		t.Fatalf("emit called %d times, want 1", calls)
	}
	// The failed pane and the unfired one are both still present.
	if got := collectPanes(t, s, EndOfTime); len(got) != 2 {
		t.Errorf("retry fired %v, want both panes", got)
	}
}

// TestWindowStateEmitErrorInLaterWindowRetries pins the error-path
// bookkeeping: when an earlier window fires completely and a LATER
// window's emit errors, a retry must fire only the remaining panes —
// not panic on the already-removed window, and not re-emit it.
func TestWindowStateEmitErrorInLaterWindowRetries(t *testing.T) {
	s := newTumbling(t)
	inc := func(c *int64) { *c++ }
	s.Upsert(epoch, "a", inc)                  // window 0
	s.Upsert(epoch.Add(time.Second), "b", inc) // window 1
	boom := errors.New("boom")
	calls := 0
	err := s.FireAll(func(Pane[int64]) error {
		calls++
		if calls == 2 {
			return boom // fail on window 1 after window 0 fired cleanly
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	got := collectPanes(t, s, EndOfTime)
	want := fmt.Sprintf("%d:b=1", epoch.Add(time.Second).Unix())
	if len(got) != 1 || got[0] != want {
		t.Errorf("retry fired %v, want only [%s]", got, want)
	}
}
