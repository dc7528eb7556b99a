package graphx

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"beambench/internal/beam"
	"beambench/internal/watermark"
)

var gbkEpoch = time.Date(2006, time.March, 1, 0, 0, 0, 0, time.UTC)

func kvCoder() beam.KVCoder {
	return beam.KVCoder{Key: beam.StringUTF8Coder{}, Value: beam.BytesCoder{}}
}

// encodeKV builds the wire form of one key/value pair.
func encodeKV(t *testing.T, key, value string) []byte {
	t.Helper()
	b, err := kvCoder().Encode(beam.KV{Key: key, Value: []byte(value)})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mustDecodeValue recovers the value payload of an encoded KV record.
func mustDecodeValue(t *testing.T, rec []byte) string {
	t.Helper()
	elem, err := kvCoder().Decode(rec)
	if err != nil {
		t.Fatal(err)
	}
	return string(elem.(beam.KV).Value.([]byte))
}

// valueEventTime reads "<seconds>|payload" values as event times.
func valueEventTime(elem any) (time.Time, error) {
	rec, ok := elem.([]byte)
	if !ok {
		return time.Time{}, fmt.Errorf("element %T is not []byte", elem)
	}
	var sec int
	if _, err := fmt.Sscanf(string(rec), "%d|", &sec); err != nil {
		return time.Time{}, err
	}
	return gbkEpoch.Add(time.Duration(sec) * time.Second), nil
}

func windowedState(t *testing.T, bound time.Duration) *GBKState {
	t.Helper()
	g, err := NewGBKState(GBKConfig{
		Windowing: beam.WindowingStrategy{
			Fn:        beam.FixedWindows{Size: time.Second},
			EventTime: valueEventTime,
			Bound:     bound,
		},
		Input:  kvCoder(),
		Output: beam.GroupedCoder{},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func decodePanes(t *testing.T, wires [][]byte) []string {
	t.Helper()
	out := make([]string, 0, len(wires))
	for _, w := range wires {
		elem, err := (beam.GroupedCoder{}).Decode(w)
		if err != nil {
			t.Fatal(err)
		}
		g := elem.(beam.Grouped)
		label := "global"
		if iw, ok := g.Window.(beam.IntervalWindow); ok {
			label = fmt.Sprint(iw.Start.Unix())
		}
		out = append(out, fmt.Sprintf("%s/%v=%d", label, g.Key, len(g.Values)))
	}
	return out
}

func TestGBKStateWindowedFiresOnWatermarkThenFlush(t *testing.T) {
	g := windowedState(t, 0)
	if !g.Windowed() {
		t.Fatal("state not in event-time mode")
	}
	var fired [][]byte
	emit := func(w []byte) error { fired = append(fired, w); return nil }

	// Two keys in window 0, one in window 2. The executable generates no
	// watermark of its own: the watermark arrives as control events (here
	// what a bound-0 assigner upstream would stamp after each record),
	// and must not release window 2 before flush.
	for _, rec := range [][]byte{
		encodeKV(t, "u1", "0|a"),
		encodeKV(t, "u2", "0|b"),
		encodeKV(t, "u1", "0|c"),
		encodeKV(t, "u3", "2|d"),
	} {
		if err := g.Process(rec, emit); err != nil {
			t.Fatal(err)
		}
		et, err := valueEventTime([]byte(mustDecodeValue(t, rec)))
		if err != nil {
			t.Fatal(err)
		}
		if err := g.OnWatermark(et, emit); err != nil {
			t.Fatal(err)
		}
	}
	got := decodePanes(t, fired)
	want := []string{
		fmt.Sprintf("%d/u1=2", gbkEpoch.Unix()),
		fmt.Sprintf("%d/u2=1", gbkEpoch.Unix()),
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("watermark-fired panes = %v, want %v", got, want)
	}

	fired = nil
	if err := g.Flush(emit); err != nil {
		t.Fatal(err)
	}
	got = decodePanes(t, fired)
	want = []string{fmt.Sprintf("%d/u3=1", gbkEpoch.Add(2*time.Second).Unix())}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("flush panes = %v, want %v", got, want)
	}
}

func TestGBKStateBoundDelaysFiring(t *testing.T) {
	g := windowedState(t, 2*time.Second)
	var fired [][]byte
	emit := func(w []byte) error { fired = append(fired, w); return nil }
	// Events up to t=1s: the upstream assigner's watermark (max seen minus
	// the 2s bound) is 1s-2s < window end (1s) -> nothing fires.
	gen := watermark.NewGenerator(2 * time.Second)
	if err := g.Process(encodeKV(t, "u1", "0|a"), emit); err != nil {
		t.Fatal(err)
	}
	gen.Observe(gbkEpoch)
	if err := g.Process(encodeKV(t, "u1", "1|b"), emit); err != nil {
		t.Fatal(err)
	}
	gen.Observe(gbkEpoch.Add(time.Second))
	if err := g.OnWatermark(gen.Current(), emit); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 0 {
		t.Fatalf("panes fired before the bound allowed: %v", decodePanes(t, fired))
	}
	// Event at t=3s: watermark = 1s -> window [0,1) fires.
	if err := g.Process(encodeKV(t, "u2", "3|c"), emit); err != nil {
		t.Fatal(err)
	}
	gen.Observe(gbkEpoch.Add(3 * time.Second))
	if err := g.OnWatermark(gen.Current(), emit); err != nil {
		t.Fatal(err)
	}
	if got := decodePanes(t, fired); len(got) != 1 || got[0] != fmt.Sprintf("%d/u1=1", gbkEpoch.Unix()) {
		t.Fatalf("panes = %v, want window 0 / u1", got)
	}
}

func TestGBKStateGlobalTriggerAndFlush(t *testing.T) {
	g, err := NewGBKState(GBKConfig{
		Windowing: beam.DefaultWindowing().Triggering(beam.AfterCount{N: 2}),
		Input:     kvCoder(),
		Output:    beam.GroupedCoder{},
	})
	if err != nil {
		t.Fatal(err)
	}
	var fired [][]byte
	emit := func(w []byte) error { fired = append(fired, w); return nil }
	for _, rec := range [][]byte{
		encodeKV(t, "a", "0|x"), encodeKV(t, "a", "0|y"), encodeKV(t, "b", "0|z"),
	} {
		if err := g.Process(rec, emit); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.OnWatermark(watermark.EndOfTime, emit); err != nil { // no-op in global mode
		t.Fatal(err)
	}
	if err := g.Flush(emit); err != nil {
		t.Fatal(err)
	}
	got := decodePanes(t, fired)
	want := []string{"global/a=2", "global/b=1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("panes = %v, want %v", got, want)
	}
}

func TestGBKStateRejectsUnsupportedWindowing(t *testing.T) {
	// Non-global windowing without an event-time extractor.
	_, err := NewGBKState(GBKConfig{
		Windowing: beam.WindowingStrategy{Fn: beam.FixedWindows{Size: time.Second}},
		Input:     kvCoder(),
		Output:    beam.GroupedCoder{},
	})
	if !errors.Is(err, beam.ErrUnsupported) {
		t.Errorf("missing event-time fn = %v, want beam.ErrUnsupported", err)
	}
	// Zero window size.
	_, err = NewGBKState(GBKConfig{
		Windowing: beam.WindowingStrategy{Fn: beam.FixedWindows{}, EventTime: valueEventTime},
		Input:     kvCoder(),
		Output:    beam.GroupedCoder{},
	})
	if !errors.Is(err, beam.ErrUnsupported) {
		t.Errorf("zero window size = %v, want beam.ErrUnsupported", err)
	}
	// A window fn outside the tumbling/sliding family.
	_, err = NewGBKState(GBKConfig{
		Windowing: beam.WindowingStrategy{Fn: gapWindows{gap: time.Second}, EventTime: valueEventTime},
		Input:     kvCoder(),
		Output:    beam.GroupedCoder{},
	})
	if !errors.Is(err, ErrUnsupportedWindowing) {
		t.Errorf("unknown window fn = %v, want ErrUnsupportedWindowing", err)
	}
}

// gapWindows is a window fn GBKState has no assigner for: each element
// gets the proto-session [ts, ts+gap), as gap-based sessions would.
type gapWindows struct{ gap time.Duration }

func (f gapWindows) Name() string { return fmt.Sprintf("gapWindows(%v)", f.gap) }

func (f gapWindows) AssignWindows(ts time.Time) []beam.Window {
	return []beam.Window{beam.IntervalWindow{Start: ts, End: ts.Add(f.gap)}}
}

func TestEncodedKVKey(t *testing.T) {
	rec := encodeKV(t, "user42", "0|payload")
	key, err := EncodedKVKey(rec)
	if err != nil {
		t.Fatal(err)
	}
	if string(key) != "user42" {
		t.Errorf("key = %q, want user42", key)
	}
	if _, err := EncodedKVKey([]byte{0xff}); err == nil {
		t.Error("malformed encoding accepted")
	}
}

// TestGBKStateIdleWatermarkDoesNotAllocate pins the hook Flink runs per
// record: with no window due, OnWatermark allocates nothing — emit
// arrives bound once, the pane callback was bound at construction, and
// the state does one comparison.
func TestGBKStateIdleWatermarkDoesNotAllocate(t *testing.T) {
	g := windowedState(t, time.Second)
	if err := g.Process(encodeKV(t, "u1", "5|a"), func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	emit := func([]byte) error { return fmt.Errorf("pane fired below the watermark") }
	w := gbkEpoch.Add(5 * time.Second)
	allocs := testing.AllocsPerRun(100, func() {
		if err := g.OnWatermark(w, emit); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("idle OnWatermark allocates %.0f times, want 0", allocs)
	}
}
