// Package watermark implements event-time progress tracking for the
// simulated stream processing engines: watermark generation from
// observed record timestamps (monotonic, with bounded out-of-orderness),
// minimum-across-inputs propagation through operators, and end-of-input
// finalization.
//
// A watermark W asserts "no record with event time earlier than W will
// arrive on this stream anymore". The subsystem splits the three
// concerns the engines share:
//
//   - Generation (Generator): each source partition — or each stateful
//     operator instance deriving progress from the records it receives —
//     observes event timestamps and produces a monotonically
//     non-decreasing watermark maxSeen − bound, where bound is the
//     stream's assumed maximum out-of-orderness.
//   - Propagation (MinTracker): an operator fed by several inputs
//     (partitions, upstream channels) holds the combined watermark at
//     the minimum of its inputs' watermarks, so a slow input holds back
//     pane firing everywhere downstream.
//   - Finalization: when a source meets the broker.EndOfInput contract
//     its watermark jumps to EndOfTime, which releases every remaining
//     window. Finalize on a Generator (or per input on a MinTracker)
//     models exactly that.
//
// In the engine runtimes watermarks travel as first-class control
// events in the data flow: a timestamp-assigning operator emits them
// interleaved with records, every intermediate operator forwards them
// combined min-over-senders (MinTracker), and the keyed stateful
// operator at the end fires panes off the watermark it receives — no
// side-channel progress estimation, sound at any parallelism and
// through merges (Union/Flatten), whose watermark is the minimum over
// all inputs.
//
// Window assignment is factored out of the pane state: an Assigner
// (assigner.go) maps an event time to its windows — tumbling (one) or
// sliding (several overlapping). WindowState (windowstate.go)
// accumulates per-(window, key) state under any Assigner and fires
// panes in a deterministic order once the watermark passes a window's
// end; NumAcc with an AggKind (agg.go) provides the numeric aggregates
// (count, sum, min, max, avg) the windowed queries compose with it.
//
// Operator (operator.go) is the contract every keyed stateful operator
// is written against — Process(rec, emit), OnWatermark(w, emit),
// Flush(emit), all over []byte — so that window semantics exist once
// and an engine contributes only its firing clock: flink.KeyedProcess,
// apex.KeyedOp and spark.Stateful each deploy any Operator and decide
// nothing but when the three calls happen. AggOperator is the windowed
// aggregate behind the native windowed queries: one AggConfig whose
// window family is its Assigner, one validation, one record body over
// WindowState.Panes, one pane encoder over NumAcc.Result;
// queries.JoinState and graphx.GBKState are the other two
// implementations. Lifetime rule for emit: the engine binds it once
// per operator instance and passes the same value on every call; it is
// valid only until that call returns. An operator may park it in a
// field for the call's pane callbacks — which, the value being stable,
// allocates nothing — and must not invoke it afterwards.
//
// WindowState is the keyed record path of every stateful cell, so its
// costs are kept to what the work is worth:
//
//   - Ordered index. The open windows are kept ordered by (end, start)
//     when they are opened — an append for in-order arrivals, a binary
//     search and a short move for out-of-order and late ones — so
//     FireReady never sorts, and when nothing is due it is one integer
//     comparison against the earliest end, however many windows are
//     open. Engines that deliver a watermark per record (Flink) make
//     that call per record. Inside the state, instants are int64 Unix
//     nanoseconds; time.Time instants outside that range (years
//     1678–2262) saturate to its ends, and EndOfTime is exactly its
//     upper end.
//   - Pane access. WindowState.Panes(t, key) returns the accumulators
//     of every window assigned to t for the key, and the caller folds
//     the record into each: no update closure, no string conversion of
//     the key (it is copied once, when its pane is created), no slice
//     per record from the assigner. The returned slice and the pointers
//     in it are scratch owned by the state, valid until the next call
//     on it — use them at once, do not keep them. Upsert is the closure
//     form of the same call.
//   - Late records. A record behind the watermark is not dropped: it
//     re-opens its (already fired) window, which fires a second,
//     partial pane on the next FireReady. Every engine shares that
//     behaviour because every operator sits on this state; an explicit
//     allowed-lateness policy belongs here and nowhere else.
package watermark

import (
	"math"
	"time"
)

// EndOfTime is the watermark of a finished input: later than every
// representable event time, it releases all remaining windows.
var EndOfTime = time.Unix(0, math.MaxInt64)

// Generator produces a monotonic watermark from observed event times
// with bounded out-of-orderness: after observing a record with event
// time t, the generator promises that no record older than t−bound is
// still in flight. It is the per-partition generation half of the
// subsystem; it is not safe for concurrent use (each partition or
// operator instance owns its own).
type Generator struct {
	bound     time.Duration
	maxSeen   time.Time
	observed  bool
	finalized bool
}

// NewGenerator returns a generator assuming at most bound of event-time
// out-of-orderness. A negative bound is treated as zero (a strictly
// ordered stream).
func NewGenerator(bound time.Duration) *Generator {
	if bound < 0 {
		bound = 0
	}
	return &Generator{bound: bound}
}

// Observe feeds one record's event time and reports whether the
// watermark advanced. Out-of-order timestamps (earlier than the maximum
// seen) never regress the watermark — monotonicity is the generator's
// contract.
func (g *Generator) Observe(t time.Time) bool {
	if g.finalized {
		return false
	}
	if !g.observed || t.After(g.maxSeen) {
		g.maxSeen = t
		g.observed = true
		return true
	}
	return false
}

// Current returns the watermark: maxSeen − bound, EndOfTime after
// Finalize, and the zero time before any observation (no progress
// claimed yet).
func (g *Generator) Current() time.Time {
	if g.finalized {
		return EndOfTime
	}
	if !g.observed {
		return time.Time{}
	}
	return g.maxSeen.Add(-g.bound)
}

// Finalize marks the input as finished (the broker.EndOfInput contract
// was met): the watermark jumps to EndOfTime and stays there.
func (g *Generator) Finalize() {
	g.finalized = true
}

// MinTracker propagates watermarks through an operator with several
// inputs: the combined watermark is the minimum of the per-input
// watermarks, so no pane fires before every input has passed it.
// Like Generator it is owned by a single goroutine.
type MinTracker struct {
	inputs []time.Time
	final  []bool
}

// NewMinTracker returns a tracker over n inputs, all at the zero
// watermark (no progress).
func NewMinTracker(n int) *MinTracker {
	if n < 1 {
		n = 1
	}
	return &MinTracker{inputs: make([]time.Time, n), final: make([]bool, n)}
}

// Advance raises one input's watermark; regressions are ignored
// (per-input monotonicity) and finalized inputs stay at EndOfTime.
func (m *MinTracker) Advance(input int, w time.Time) {
	if m.final[input] {
		return
	}
	if w.After(m.inputs[input]) {
		m.inputs[input] = w
	}
}

// Finalize marks one input as finished; its watermark becomes EndOfTime.
func (m *MinTracker) Finalize(input int) {
	m.final[input] = true
	m.inputs[input] = EndOfTime
}

// Combined returns the minimum watermark across the inputs — the
// operator's output watermark.
func (m *MinTracker) Combined() time.Time {
	min := m.inputs[0]
	for _, w := range m.inputs[1:] {
		if w.Before(min) {
			min = w
		}
	}
	return min
}
