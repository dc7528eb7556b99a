package queries

import (
	"fmt"
	"strconv"
	"time"

	"beambench/internal/aol"
	"beambench/internal/watermark"
)

// SlidingSum parameters: per-user sums of the item-rank column over
// 2-second event-time sliding windows advancing every second. Each
// record therefore lands in two overlapping windows (one near the
// epoch), which is the property the query adds over WindowedCount: the
// window assigner is no longer one-to-one, so every engine's windowed
// state must handle overlapping panes and still agree byte-for-byte.
const (
	// SlidingSumWindow is the sliding window length.
	SlidingSumWindow = 2 * time.Second
	// SlidingSumSlide is the window advance step.
	SlidingSumSlide = time.Second
	// SlidingSumBound is the assumed maximum event-time out-of-orderness
	// (see WindowedCountBound).
	SlidingSumBound = time.Second
)

// slidingSumAssigner builds the query's window assigner. The constants
// above are validated at test time; constructing from them cannot fail.
func slidingSumAssigner() watermark.Assigner {
	a, err := watermark.NewSlidingAssigner(SlidingSumWindow, SlidingSumSlide)
	if err != nil {
		panic(err)
	}
	return a
}

// ItemRank returns the record's item-rank column (the fourth
// tab-separated field) as the aggregated value; an absent rank (empty
// column — the AOL encoding for a query without a click) contributes 0.
func ItemRank(rec []byte) (int64, error) {
	col := nthColumn(rec, 3)
	if len(col) == 0 {
		return 0, nil
	}
	//beamvet:allow hotalloc the string does not outlive ParseInt, so a rank column (a few digits) converts on the stack
	v, err := strconv.ParseInt(string(col), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("queries: item rank: %w", err)
	}
	return v, nil
}

// HasItemRank reports whether the record carries an item rank — the
// click-through half of the AOL log, the join query's second input.
func HasItemRank(rec []byte) bool {
	return len(nthColumn(rec, 3)) > 0
}

// slidingSumAgg is the query's keyed operator — the part of the native
// pipelines that is the same on every engine.
func slidingSumAgg() watermark.AggConfig {
	return watermark.AggConfig{
		Assigner:  slidingSumAssigner(),
		Agg:       watermark.AggSum,
		Value:     ItemRank,
		EventTime: EventTime,
		Key:       UserKey,
		Format:    FormatPane,
	}
}

// slidingSumReference builds the expected SlidingSum output from input
// records via the same window state every engine runs, so the reference
// order is the deterministic firing order (windows ascending by
// (end, start), keys first-seen within a window).
func slidingSumReference() *paneReference {
	return newPaneReference(slidingSumAssigner(), watermark.AggSum, ItemRank, FormatPane)
}

// ExpectedSlidingSums computes the SlidingSum output payloads a dataset
// must produce, in the deterministic pane-firing order. Tests and the
// result calculator use it as the reference.
func ExpectedSlidingSums(records [][]byte) ([][]byte, error) {
	return expectedPayloads(slidingSumReference(), records)
}

// paneReference derives a stateful query's expected output set by
// feeding the dataset through the shared watermark.WindowState — the
// exact accumulator every engine deploys — and draining it. Each pane
// additionally tracks the append ordinal of its latest contributing
// input, the anchor for event-time latency pairing.
type paneReference struct {
	state  *watermark.WindowState[refAcc]
	agg    watermark.AggKind
	value  func(rec []byte) (int64, error)
	format func(start time.Time, key []byte, value int64) []byte
}

// refAcc pairs the numeric accumulator with latency-pairing bookkeeping.
type refAcc struct {
	acc       watermark.NumAcc
	lastInput int
}

func newPaneReference(a watermark.Assigner, agg watermark.AggKind,
	value func(rec []byte) (int64, error),
	format func(start time.Time, key []byte, value int64) []byte,
) *paneReference {
	state, err := watermark.NewWindowState[refAcc](a, nil)
	if err != nil {
		panic(err) // static assigners; cannot fail
	}
	return &paneReference{state: state, agg: agg, value: value, format: format}
}

// add feeds one input record with its append ordinal.
func (r *paneReference) add(rec []byte, ordinal int) error {
	et, err := EventTime(rec)
	if err != nil {
		return err
	}
	v := int64(0)
	if r.value != nil {
		if v, err = r.value(rec); err != nil {
			return err
		}
	}
	for _, a := range r.state.Panes(et, aol.FirstColumn(rec)) {
		a.acc.Add(v)
		a.lastInput = ordinal
	}
	return nil
}

// groups drains the state into the expected panes, in firing order.
// Call once; the state is consumed.
func (r *paneReference) groups() []windowedGroup {
	var out []windowedGroup
	_ = r.state.FireAll(func(p watermark.Pane[refAcc]) error {
		out = append(out, windowedGroup{
			payload:   r.format(p.Start, []byte(p.Key), p.Acc.acc.Result(r.agg)),
			lastInput: p.Acc.lastInput,
		})
		return nil
	})
	return out
}

// expectedAggregator derives a stateful query's expected output panes
// from the input dataset; windowedAggregator, paneReference and
// joinReference implement it for the three stateful queries.
type expectedAggregator interface {
	add(rec []byte, ordinal int) error
	groups() []windowedGroup
}

// expectedPayloads runs every record through agg and returns the pane
// payloads in the deterministic firing order.
func expectedPayloads(agg expectedAggregator, records [][]byte) ([][]byte, error) {
	for i, rec := range records {
		if err := agg.add(rec, i); err != nil {
			return nil, err
		}
	}
	groups := agg.groups()
	out := make([][]byte, len(groups))
	for i, g := range groups {
		out[i] = g.payload
	}
	return out, nil
}
