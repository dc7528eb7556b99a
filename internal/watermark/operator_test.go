package watermark

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// aggTestConfig aggregates "sec|key|value" records per key over 1 s
// tumbling windows; sec counts from epoch. Its extractors do not
// allocate.
func aggTestConfig(t *testing.T, agg AggKind) AggConfig {
	t.Helper()
	a, err := NewTumblingAssigner(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	field := func(rec []byte, n int) []byte {
		for ; n > 0; n-- {
			rec = rec[bytes.IndexByte(rec, '|')+1:]
		}
		if i := bytes.IndexByte(rec, '|'); i >= 0 {
			rec = rec[:i]
		}
		return rec
	}
	number := func(col []byte) (int64, error) {
		var v int64
		for _, c := range col {
			if c < '0' || c > '9' {
				return 0, fmt.Errorf("column %q is not a number", col)
			}
			v = v*10 + int64(c-'0')
		}
		return v, nil
	}
	return AggConfig{
		Assigner: a,
		Agg:      agg,
		Value:    func(rec []byte) (int64, error) { return number(field(rec, 2)) },
		EventTime: func(rec []byte) (time.Time, error) {
			sec, err := number(field(rec, 0))
			return epoch.Add(time.Duration(sec) * time.Second), err
		},
		Key: func(rec []byte) ([]byte, error) { return field(rec, 1), nil },
		Format: func(start time.Time, key []byte, v int64) []byte {
			return []byte(fmt.Sprintf("%d:%s=%d", start.Sub(epoch)/time.Second, key, v))
		},
	}
}

// aggDriver feeds an operator and collects what it emits.
type aggDriver struct {
	t    *testing.T
	op   *AggOperator
	out  []string
	emit func([]byte) error
}

func newAggDriver(t *testing.T, cfg AggConfig) *aggDriver {
	t.Helper()
	op, err := NewAggOperator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := &aggDriver{t: t, op: op}
	d.emit = func(rec []byte) error { d.out = append(d.out, string(rec)); return nil }
	return d
}

func (d *aggDriver) process(recs ...string) {
	d.t.Helper()
	for _, rec := range recs {
		if err := d.op.Process([]byte(rec), d.emit); err != nil {
			d.t.Fatal(err)
		}
	}
}

// fired returns what the call emitted and resets the collection.
func (d *aggDriver) fired(err error) string {
	d.t.Helper()
	if err != nil {
		d.t.Fatal(err)
	}
	got := strings.Join(d.out, " ")
	d.out = nil
	return got
}

// TestNewAggOperatorValidation is the one validation test of the one
// windowed-aggregate config.
func TestNewAggOperatorValidation(t *testing.T) {
	for name, tc := range map[string]struct {
		mutate func(*AggConfig)
		ok     bool
	}{
		"complete":          {func(*AggConfig) {}, true},
		"nil value counts":  {func(c *AggConfig) { c.Value = nil }, true},
		"nil assigner":      {func(c *AggConfig) { c.Assigner = nil }, false},
		"unset agg kind":    {func(c *AggConfig) { c.Agg = 0 }, false},
		"unknown agg kind":  {func(c *AggConfig) { c.Agg = AggAvg + 1 }, false},
		"nil event time":    {func(c *AggConfig) { c.EventTime = nil }, false},
		"nil key":           {func(c *AggConfig) { c.Key = nil }, false},
		"nil format":        {func(c *AggConfig) { c.Format = nil }, false},
		"sliding assigner":  {func(c *AggConfig) { c.Assigner = mustSliding(t, 2*time.Second, time.Second) }, true},
		"every agg kind ok": {func(c *AggConfig) { c.Agg = AggAvg }, true},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := aggTestConfig(t, AggCount)
			tc.mutate(&cfg)
			op, err := NewAggOperator(cfg)
			if tc.ok && (err != nil || op == nil) {
				t.Fatalf("NewAggOperator = %v, %v; want an operator", op, err)
			}
			if !tc.ok && err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func mustSliding(t *testing.T, size, slide time.Duration) Assigner {
	t.Helper()
	a, err := NewSlidingAssigner(size, slide)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestAggOperatorFiresOnWatermarkThenFlush pins the contract's three
// calls: Process only accumulates, OnWatermark releases exactly the
// windows it passed — ascending, keys first-seen — and Flush the rest.
func TestAggOperatorFiresOnWatermarkThenFlush(t *testing.T) {
	d := newAggDriver(t, aggTestConfig(t, AggSum))
	d.process("0|b|4", "0|a|1", "1|a|10", "0|b|2", "5|z|7")
	if len(d.out) != 0 {
		t.Fatalf("Process emitted %v", d.out)
	}
	if got := d.fired(d.op.OnWatermark(epoch.Add(999*time.Millisecond), d.emit)); got != "" {
		t.Errorf("fired %q before the watermark passed a window end", got)
	}
	if got, want := d.fired(d.op.OnWatermark(epoch.Add(2*time.Second), d.emit)), "0:b=6 0:a=1 1:a=10"; got != want {
		t.Errorf("OnWatermark(2s) fired %q, want %q", got, want)
	}
	if got := d.fired(d.op.OnWatermark(epoch.Add(2*time.Second), d.emit)); got != "" {
		t.Errorf("a repeated watermark fired %q again", got)
	}
	if got, want := d.fired(d.op.Flush(d.emit)), "5:z=7"; got != want {
		t.Errorf("Flush fired %q, want %q", got, want)
	}
}

// TestAggOperatorAggKinds checks the pane encoder reduces NumAcc under
// the configured kind, and that a nil Value folds zeros (a pure count).
func TestAggOperatorAggKinds(t *testing.T) {
	for kind, want := range map[AggKind]string{
		AggCount: "0:a=3", AggSum: "0:a=12", AggMin: "0:a=2", AggMax: "0:a=6", AggAvg: "0:a=4",
	} {
		d := newAggDriver(t, aggTestConfig(t, kind))
		d.process("0|a|4", "0|a|2", "0|a|6")
		if got := d.fired(d.op.Flush(d.emit)); got != want {
			t.Errorf("%s pane = %q, want %q", kind, got, want)
		}
	}
	cfg := aggTestConfig(t, AggCount)
	cfg.Value = nil
	d := newAggDriver(t, cfg)
	d.process("0|a|x", "0|a|y") // value column unread
	if got, want := d.fired(d.op.Flush(d.emit)), "0:a=2"; got != want {
		t.Errorf("count without Value = %q, want %q", got, want)
	}
}

// TestAggOperatorLateRecordRefiresItsWindow pins today's late-record
// behaviour where the follow-up lateness policy will change it: a
// record behind the watermark re-opens its fired window, which fires a
// second, partial pane at the next watermark.
func TestAggOperatorLateRecordRefiresItsWindow(t *testing.T) {
	d := newAggDriver(t, aggTestConfig(t, AggCount))
	d.process("0|a|0", "0|a|0")
	wm := epoch.Add(3 * time.Second)
	if got, want := d.fired(d.op.OnWatermark(wm, d.emit)), "0:a=2"; got != want {
		t.Fatalf("first pane = %q, want %q", got, want)
	}
	d.process("0|a|0") // 3 s behind the watermark
	if got, want := d.fired(d.op.OnWatermark(wm, d.emit)), "0:a=1"; got != want {
		t.Errorf("late record fired %q, want the partial pane %q", got, want)
	}
}

// TestAggOperatorErrors checks extractor errors name their column and
// an emit error stops firing and comes back unchanged.
func TestAggOperatorErrors(t *testing.T) {
	d := newAggDriver(t, aggTestConfig(t, AggSum))
	if err := d.op.Process([]byte("x|a|1"), d.emit); err == nil || !strings.Contains(err.Error(), "event time") {
		t.Errorf("bad event time: err = %v", err)
	}
	if err := d.op.Process([]byte("0|a|x"), d.emit); err == nil || !strings.Contains(err.Error(), "value") {
		t.Errorf("bad value: err = %v", err)
	}
	cfg := aggTestConfig(t, AggSum)
	boom := errors.New("bad key")
	cfg.Key = func([]byte) ([]byte, error) { return nil, boom }
	if op, _ := NewAggOperator(cfg); !errors.Is(op.Process([]byte("0|a|1"), nil), boom) {
		t.Error("key error not wrapped")
	}
	d.process("0|a|1", "1|a|1")
	stop := errors.New("downstream stopped")
	calls := 0
	err := d.op.Flush(func([]byte) error { calls++; return stop })
	if !errors.Is(err, stop) || calls != 1 {
		t.Errorf("Flush = %v after %d emits, want the emit error after 1", err, calls)
	}
}

// TestAggOperatorRecordPathDoesNotAllocate pins the operator's own
// share of the keyed record path: folding a record into an existing
// (window, key) pane and an idle watermark allocate nothing, given emit
// is one value bound by the caller.
func TestAggOperatorRecordPathDoesNotAllocate(t *testing.T) {
	d := newAggDriver(t, aggTestConfig(t, AggSum))
	rec := []byte("7|a|3")
	d.process(string(rec))
	idle := epoch.Add(7 * time.Second)
	if n := testing.AllocsPerRun(100, func() {
		if err := d.op.Process(rec, d.emit); err != nil {
			t.Fatal(err)
		}
		if err := d.op.OnWatermark(idle, d.emit); err != nil {
			t.Fatal(err)
		}
	}); n != 0 || len(d.out) != 0 {
		t.Errorf("Process + idle OnWatermark: %v allocs, %d emissions; want 0, 0", n, len(d.out))
	}
}
