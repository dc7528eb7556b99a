package harness

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"beambench/internal/queries"
	"beambench/internal/simcost"
)

// TestLateRecordRefiresItsWindowOnEveryEngine is the engine-level
// parity test of today's late-record behaviour: a record behind the
// watermark re-opens its already-fired window, which fires a second,
// partial pane — identically on Flink, Apex and Spark, native and Beam.
// It exists so the allowed-lateness policy that replaces this behaviour
// (ROADMAP: drop and count) has one test to flip.
//
// The dataset makes the last record late on every firing clock: user A's
// first record (second 0) is followed by 10,001 records of user B at
// second 10 — more than a Spark micro-batch (10,000 records per
// partition) and twenty Apex streaming windows — so each engine has
// delivered a watermark of 9 s and fired A's first pane before A's
// second record, again at second 0, arrives.
func TestLateRecordRefiresItsWindowOnEveryEngine(t *testing.T) {
	const filler = 10_001
	rec := func(user string, sec int) []byte {
		return []byte(fmt.Sprintf("%s\tq\t2006-03-01 00:00:%02d\t\t", user, sec))
	}
	data := [][]byte{rec("A", 0)}
	for range filler {
		data = append(data, rec("B", 10))
	}
	data = append(data, rec("A", 0))

	start, err := queries.EventTime(data[0])
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		string(queries.FormatPane(start, []byte("A"), 1)), // fired by the watermark
		string(queries.FormatPane(start, []byte("A"), 1)), // the late record's partial pane
		string(queries.FormatPane(start.Add(10*time.Second), []byte("B"), filler)),
	}
	sort.Strings(want)

	zero := simcost.ZeroCosts()
	r, err := New(Config{Records: len(data), Runs: 1, Costs: &zero, DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	r.dataset = data
	// Parallelism 1 only: above it the min-over-senders watermark also
	// waits for the idle lanes' end-of-time, which races the records, so
	// whether the record is late stops being a property of the dataset.
	for _, sys := range Systems() {
		for _, api := range APIs() {
			setup := Setup{System: sys, API: api, Query: queries.WindowedCount, Parallelism: 1}
			t.Run(setup.Label(), func(t *testing.T) {
				got := runModeOutputs(t, r, setup, IngestPreload)
				sort.Strings(got)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("panes = %q, want %q", got, want)
				}
			})
		}
	}
}
