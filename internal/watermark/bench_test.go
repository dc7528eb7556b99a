package watermark

import (
	"fmt"
	"testing"
	"time"
)

// benchKeys are short user-ID-like keys, as the benchmark queries use.
var benchKeys = func() [][]byte {
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "%d", 1000+37*i)
	}
	return keys
}()

// must unwraps an assigner constructor's result.
func must(a Assigner, err error) Assigner {
	if err != nil {
		panic(err)
	}
	return a
}

func newNumState(tb testing.TB, a Assigner) *WindowState[NumAcc] {
	tb.Helper()
	s, err := NewWindowState[NumAcc](a, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func errorOnPane(Pane[NumAcc]) error { return fmt.Errorf("a pane fired below the watermark") }

// BenchmarkWindowStateUpsert is the record path of every windowed
// operator on the dataset's shape — one record per second of event
// time, so nearly every record opens a window — with the watermark
// trailing by two windows, as under the queries' out-of-orderness bound.
func BenchmarkWindowStateUpsert(b *testing.B) {
	for _, bc := range []struct {
		name     string
		assigner Assigner
	}{
		{"tumbling", must(NewTumblingAssigner(time.Second))},
		{"sliding", must(NewSlidingAssigner(2*time.Second, time.Second))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := newNumState(b, bc.assigner)
			drop := func(Pane[NumAcc]) error { return nil }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := epoch.Add(time.Duration(i) * time.Second)
				for _, acc := range s.Panes(t, benchKeys[i%len(benchKeys)]) {
					acc.Add(1)
				}
				if i%16 == 0 {
					if err := s.FireReady(t.Add(-2*time.Second), drop); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkWindowStateFireReadyIdle is the call Flink makes for every
// record: the watermark is below the earliest window end, so nothing
// fires, however many windows are open.
func BenchmarkWindowStateFireReadyIdle(b *testing.B) {
	for _, open := range []int{8, 512} {
		b.Run(fmt.Sprintf("open%d", open), func(b *testing.B) {
			s := newNumState(b, must(NewTumblingAssigner(time.Second)))
			for w := 0; w < open; w++ {
				s.Panes(epoch.Add(time.Duration(w)*time.Second), benchKeys[0])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.FireReady(epoch, errorOnPane); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestPanesOnExistingPaneDoesNotAllocate(t *testing.T) {
	for name, s := range map[string]*WindowState[NumAcc]{
		"tumbling": newNumState(t, must(NewTumblingAssigner(time.Second))),
		"sliding":  newNumState(t, must(NewSlidingAssigner(2*time.Second, time.Second))),
	} {
		// Enough keys in the window to be past the scan and on the index.
		for _, key := range benchKeys[:2*scanLimit] {
			s.Panes(epoch, key)
		}
		for _, key := range [][]byte{benchKeys[0], benchKeys[2*scanLimit-1]} {
			allocs := testing.AllocsPerRun(100, func() {
				for _, acc := range s.Panes(epoch.Add(500*time.Millisecond), key) {
					acc.Add(1)
				}
			})
			if allocs != 0 {
				t.Errorf("%s: Panes on an existing (window, key) allocates %.0f times, want 0", name, allocs)
			}
		}
	}
}

func TestIdleFireReadyDoesNotAllocate(t *testing.T) {
	s := newNumState(t, must(NewTumblingAssigner(time.Second)))
	for w := 0; w < 512; w++ {
		s.Panes(epoch.Add(time.Duration(w)*time.Second), benchKeys[0])
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.FireReady(epoch, errorOnPane); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("idle FireReady allocates %.0f times, want 0", allocs)
	}
	if s.Open() != 512 {
		t.Errorf("open windows = %d, want 512", s.Open())
	}
}
