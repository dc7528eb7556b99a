package obs

import (
	"testing"
	"time"
)

func TestSpanAndInstantRecording(t *testing.T) {
	tr := NewTracer(64)
	sp := tr.Span("harness", "run")
	tr.Instant("panes", "pane-fire")
	sp.End()

	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	// Recording order: the instant lands before the span's End.
	if evs[0].Phase != PhaseInstant || evs[0].Track != "panes" {
		t.Errorf("first event = %+v, want instant on panes", evs[0])
	}
	if evs[1].Phase != PhaseComplete || evs[1].Track != "harness" || evs[1].Name != "run" {
		t.Errorf("second event = %+v, want complete span harness/run", evs[1])
	}
	if evs[1].Dur < 0 {
		t.Errorf("span duration negative: %v", evs[1].Dur)
	}
	if d := tr.Dropped(); d != 0 {
		t.Errorf("Dropped() = %d, want 0", d)
	}
}

// TestRingOverflow is the satellite contract: when the ring fills, the
// oldest events are dropped, the drop count is reported, and recording
// keeps succeeding without blocking.
func TestRingOverflow(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Counter("c", float64(i))
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want ring capacity 4", len(evs))
	}
	// The four newest survive: values 6..9.
	for i, ev := range evs {
		if want := float64(6 + i); ev.Value != want {
			t.Errorf("event %d value = %v, want %v (oldest must be dropped first)", i, ev.Value, want)
		}
	}
	if d := tr.Dropped(); d != 6 {
		t.Errorf("Dropped() = %d, want 6", d)
	}
}

func TestScopedPrefixesTracksAndGauges(t *testing.T) {
	tr := NewTracer(16)
	scope := tr.Scoped("flink native WindowedCount/run0")
	scope.Span("harness", "execute").End()
	g := scope.Gauge("watermark-lag/GroupByKey")
	if got, want := g.Name(), "flink native WindowedCount/run0/watermark-lag/GroupByKey"; got != want {
		t.Errorf("gauge name = %q, want %q", got, want)
	}
	evs := tr.Events() // scope shares the parent ring
	if len(evs) != 1 || evs[0].Track != "flink native WindowedCount/run0/harness" {
		t.Fatalf("events = %+v, want one span on the scoped track", evs)
	}
	// Nested scopes compose.
	inner := scope.Scoped("sub")
	if got := inner.Gauge("g").Name(); got != "flink native WindowedCount/run0/sub/g" {
		t.Errorf("nested gauge name = %q", got)
	}
	// The parent's gauge registry is per scope.
	if n := len(tr.Gauges()); n != 0 {
		t.Errorf("root tracer has %d gauges, want 0", n)
	}
	if n := len(scope.Gauges()); n != 1 {
		t.Errorf("scope has %d gauges, want 1", n)
	}
}

func TestGaugeSetTime(t *testing.T) {
	tr := NewTracer(4)
	g := tr.Gauge("wm")
	ts := time.Unix(10, 500)
	g.SetTime(ts)
	if got := g.Load(); got != ts.UnixNano() {
		t.Errorf("Load() = %d, want %d", got, ts.UnixNano())
	}
	g.Set(42)
	if got := g.Load(); got != 42 {
		t.Errorf("Load() = %d, want 42", got)
	}
}

// TestNilTracerIsDisabled pins the nil-safe contract: every method on a
// nil tracer, gauge, span, and monitor is a no-op.
func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	sp := tr.Span("a", "b")
	sp.End()
	tr.Instant("a", "b")
	tr.Counter("a", 1)
	tr.Gauge("g").Set(1)
	tr.Gauge("g").SetTime(time.Unix(1, 0))
	if tr.Gauge("g").Load() != 0 {
		t.Error("nil gauge Load() != 0")
	}
	if tr.Scoped("x") != nil {
		t.Error("nil.Scoped() != nil")
	}
	if tr.Events() != nil || tr.Dropped() != 0 || tr.Gauges() != nil {
		t.Error("nil tracer reports state")
	}
	if m := NewMonitor(nil, time.Millisecond, CellSources{}); m != nil {
		t.Error("NewMonitor(nil) != nil")
	}
	var m *Monitor
	m.Start()
	if m.Stop() != nil {
		t.Error("nil monitor Stop() != nil")
	}
}

// TestNilHotPathAllocations is the acceptance criterion: with tracing
// disabled, the record hot path performs zero allocations.
func TestNilHotPathAllocations(t *testing.T) {
	var tr *Tracer
	g := tr.Gauge("wm")
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Span("track", "name")
		tr.Instant("track", "name")
		tr.Counter("track", 1)
		g.Set(7)
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("nil hot path allocates %v per op, want 0", allocs)
	}
}

// TestEnabledHotPathAllocations: an enabled tracer's record path reuses
// the preallocated ring — recording itself must not allocate either.
func TestEnabledHotPathAllocations(t *testing.T) {
	tr := NewTracer(1 << 10)
	g := tr.Gauge("wm")
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Span("track", "name")
		g.Set(7)
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("enabled hot path allocates %v per op, want 0", allocs)
	}
}

func TestDroppedCountsOnlyOverwrites(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 8; i++ {
		tr.Counter("c", float64(i))
	}
	if d := tr.Dropped(); d != 0 {
		t.Errorf("full-but-not-overflowed ring reports %d dropped", d)
	}
	tr.Counter("c", 8)
	if d := tr.Dropped(); d != 1 {
		t.Errorf("Dropped() = %d after one overwrite, want 1", d)
	}
}
