package queries

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"time"

	"beambench/internal/aol"
	"beambench/internal/watermark"
)

// WindowedCount parameters: per-user-ID counts over 1-second event-time
// tumbling windows. Event time is the record's own query-time column
// (not the broker append time, which differs between preload and stream
// ingestion), so the windowed output is deterministic across engines,
// APIs, parallelism levels and ingestion modes — the acceptance
// property of the stateful scenario.
const (
	// WindowedCountWindow is the tumbling window size.
	WindowedCountWindow = time.Second
	// WindowedCountBound is the assumed maximum event-time
	// out-of-orderness: the watermark trails the newest event time seen
	// by one window, delaying pane firing by at most one window against
	// a perfectly ordered stream while tolerating the reordering keyed
	// routing can introduce between source and stateful operator.
	WindowedCountBound = time.Second
)

// eventTimeLayout is the AOL query-time column format.
const eventTimeLayout = "2006-01-02 15:04:05"

// EventTime parses a record's event timestamp from its query-time
// column (the third tab-separated field). All four systems and the Beam
// translation derive event time this way, which is what makes the
// windowed aggregation reproducible from the dataset alone.
func EventTime(rec []byte) (time.Time, error) {
	rest := skipColumns(rec, 2)
	if rest == nil {
		return time.Time{}, fmt.Errorf("queries: record %.40q has no query-time column", rec)
	}
	if t, ok := parseQueryTime(rest); ok {
		return t, nil
	}
	//beamvet:allow hotalloc the fallback runs only for columns parseQueryTime rejects, which the dataset never produces
	t, err := time.Parse(eventTimeLayout, string(aol.FirstColumn(rest)))
	if err != nil {
		return time.Time{}, fmt.Errorf("queries: query time: %w", err)
	}
	return t, nil
}

// parseQueryTime parses the column at the head of rest when it has the
// fixed-width "YYYY-MM-DD HH:MM:SS" shape the dataset uses, without the
// string copy and layout interpretation of time.Parse. It reports false
// for anything else — another width, a non-digit, a field out of range
// — and the caller leaves the verdict, and the error text, to
// time.Parse: whatever this accepts, time.Parse accepts with the same
// result.
func parseQueryTime(rest []byte) (time.Time, bool) {
	const width = len(eventTimeLayout)
	if len(rest) < width || (len(rest) > width && rest[width] != '\t') {
		return time.Time{}, false
	}
	col := rest[:width]
	if col[4] != '-' || col[7] != '-' || col[10] != ' ' || col[13] != ':' || col[16] != ':' {
		return time.Time{}, false
	}
	century, year := twoDigits(col, 0), twoDigits(col, 2)
	month, day := twoDigits(col, 5), twoDigits(col, 8)
	hour, minute, sec := twoDigits(col, 11), twoDigits(col, 14), twoDigits(col, 17)
	if century > 99 || year > 99 || month < 1 || month > 12 || hour > 23 || minute > 59 || sec > 59 {
		return time.Time{}, false
	}
	year += 100 * century
	if day < 1 || day > daysIn(month, year) {
		return time.Time{}, false
	}
	return time.Date(year, time.Month(month), day, hour, minute, sec, 0, time.UTC), true
}

// twoDigits reads the two-digit field at col[i:i+2]; a non-digit yields
// a value above every field's range.
func twoDigits(col []byte, i int) int {
	hi, lo := col[i]-'0', col[i+1]-'0'
	if hi > 9 || lo > 9 {
		return 100
	}
	return int(hi)*10 + int(lo)
}

// daysIn returns the length of the month in the proleptic Gregorian
// calendar time.Parse validates days against.
func daysIn(month, year int) int {
	switch month {
	case 2:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	case 4, 6, 9, 11:
		return 30
	}
	return 31
}

// skipColumns returns what follows the record's first n tab-separated
// columns; nil when the record has no more than n columns.
func skipColumns(rec []byte, n int) []byte {
	for ; n > 0; n-- {
		i := bytes.IndexByte(rec, '\t')
		if i < 0 {
			return nil
		}
		rec = rec[i+1:]
	}
	return rec
}

// nthColumn returns the record's n-th (0-based) tab-separated column
// without allocating; nil when the record has fewer columns, an empty
// slice when the column exists but is empty (the absent-item-rank
// encoding).
func nthColumn(rec []byte, n int) []byte {
	rest := skipColumns(rec, n)
	if rest == nil {
		return nil
	}
	return aol.FirstColumn(rest)
}

// EventTimeOf adapts EventTime to the abstraction layer's element-typed
// extractor (beam.EventTimeFn takes any).
func EventTimeOf(elem any) (time.Time, error) {
	rec, ok := elem.([]byte)
	if !ok {
		return time.Time{}, fmt.Errorf("queries: event-time element %T is not []byte", elem)
	}
	return EventTime(rec)
}

// UserKey returns a record's user-ID column, the WindowedCount grouping
// key.
func UserKey(rec []byte) ([]byte, error) {
	return aol.FirstColumn(rec), nil
}

// windowedCountAgg is the query's keyed operator — the part of the
// native pipelines that is the same on every engine.
func windowedCountAgg() watermark.AggConfig {
	a, err := watermark.NewTumblingAssigner(WindowedCountWindow)
	if err != nil {
		panic(err) // constant window size; cannot fail
	}
	return watermark.AggConfig{
		Assigner:  a,
		Agg:       watermark.AggCount,
		EventTime: EventTime,
		Key:       UserKey,
		Format:    FormatPane,
	}
}

// FormatPane renders one output record of the windowed aggregate
// queries (WindowedCount's count, SlidingSum's sum):
// "<window-start-unix>\t<user-id>\t<value>". Window starts are aligned
// to the window size or slide, so the triple is unique per pane:
// outputs are pairable and the sorted output set is byte-identical
// across systems.
func FormatPane(windowStart time.Time, user []byte, value int64) []byte {
	out := make([]byte, 0, 24+len(user))
	out = strconv.AppendInt(out, windowStart.Unix(), 10)
	out = append(out, '\t')
	out = append(out, user...)
	out = append(out, '\t')
	out = strconv.AppendInt(out, value, 10)
	return out
}

// windowedGroup is one expected (window, user) aggregate derived from
// the input dataset.
type windowedGroup struct {
	payload []byte
	// lastInput is the append ordinal of the group's latest contributing
	// input record — the record whose arrival completes the pane, and
	// therefore the anchor for event-time latency pairing of keyed
	// outputs.
	lastInput int
}

// windowedAggregator accumulates the expected WindowedCount output set
// from input records, in the deterministic pane order (ascending window,
// keys first-seen within a window).
type windowedAggregator struct {
	counts map[int64]map[string]*windowedCountEntry
	order  []int64 // window starts in first-seen order; sorted at build
}

type windowedCountEntry struct {
	count     int64
	lastInput int
	seen      int // first-seen rank within the window
}

func newWindowedAggregator() *windowedAggregator {
	return &windowedAggregator{counts: make(map[int64]map[string]*windowedCountEntry)}
}

// add feeds one input record with its append ordinal.
func (a *windowedAggregator) add(rec []byte, ordinal int) error {
	et, err := EventTime(rec)
	if err != nil {
		return err
	}
	start := et.Truncate(WindowedCountWindow).Unix()
	user := string(aol.FirstColumn(rec))
	byUser, ok := a.counts[start]
	if !ok {
		byUser = make(map[string]*windowedCountEntry)
		a.counts[start] = byUser
		a.order = append(a.order, start)
	}
	e, ok := byUser[user]
	if !ok {
		e = &windowedCountEntry{seen: len(byUser)}
		byUser[user] = e
	}
	e.count++
	e.lastInput = ordinal
	return nil
}

// groups returns the expected panes in the deterministic order.
func (a *windowedAggregator) groups() []windowedGroup {
	starts := append([]int64(nil), a.order...)
	sortInt64s(starts)
	var out []windowedGroup
	for _, start := range starts {
		byUser := a.counts[start]
		users := make([]string, len(byUser))
		for u, e := range byUser {
			users[e.seen] = u
		}
		for _, u := range users {
			e := byUser[u]
			out = append(out, windowedGroup{
				payload:   FormatPane(time.Unix(start, 0).UTC(), []byte(u), e.count),
				lastInput: e.lastInput,
			})
		}
	}
	return out
}

func sortInt64s(v []int64) {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
}

// ExpectedWindowedCounts computes the WindowedCount output payloads a
// dataset must produce, in the deterministic pane order every engine
// fires in on ordered input. Tests and the result calculator use it as
// the reference.
func ExpectedWindowedCounts(records [][]byte) ([][]byte, error) {
	return expectedPayloads(newWindowedAggregator(), records)
}
