package main

import (
	"sort"
	"strings"
	"time"

	"beambench/internal/obs"
)

// span is one recorded interval. Start and Dur are offsets on the
// tracer's monotonic timeline, so the driver's spans and the spans the
// harness and engines already expose share one clock.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the root
	Name   string `json:"name"`
	Track  string `json:"track"`
	// Cell is the benchmark cell the span belongs to, if any.
	Cell string `json:"cell,omitempty"`
	// Blocking spans run on their parent's goroutine and partition its
	// time; the others (engine subtasks, batches and partitions, and the
	// concurrent sender of stream ingest) run beside it.
	Blocking bool          `json:"blocking"`
	Start    time.Duration `json:"startNs"`
	Dur      time.Duration `json:"durNs"`
	// Self is Dur minus the part of the interval the span's blocking
	// children cover; for a non-blocking span it is its busy time.
	Self time.Duration `json:"selfNs"`
}

func (s span) end() time.Duration { return s.Start + s.Dur }

// recorder keeps the driver's own spans in memory: workload -> rep ->
// cell -> RunSingle, and one span per layer driver. A nil recorder
// records nothing, so the timed reps share the traced rep's code.
type recorder struct {
	tr    *obs.Tracer
	spans []span
	// runSingle maps a cell key to its RunSingle span, the parent of the
	// harness's own "run" span for that cell.
	runSingle map[string]int
}

func newRecorder(tr *obs.Tracer) *recorder {
	return &recorder{tr: tr, runSingle: map[string]int{}}
}

// begin opens a blocking driver span and returns its ID.
func (r *recorder) begin(name, track string, parent int) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Track: track, Blocking: true, Start: r.tr.Now()})
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	s := &r.spans[id-1]
	s.Dur = r.tr.Now() - s.Start
}

func (r *recorder) bindCell(key string, id int) {
	if r != nil {
		r.runSingle[key] = id
	}
}

// Names of the sequential phases the harness records on its "harness"
// and "sender" tracks.
const (
	spanRun       = "run"
	spanIngest    = "ingest"
	spanLaunch    = "cluster-launch"
	spanExecute   = "execute"
	spanResultCal = "result-calc"
)

// splitTrack splits a scoped event track "<cell key>/run0/<rest>".
func splitTrack(track string) (cell, rest string, ok bool) {
	const marker = "/run0/"
	i := strings.Index(track, marker)
	if i < 0 {
		return "", "", false
	}
	return track[:i], track[i+len(marker):], true
}

// adopt appends the spans of the tracer's complete-events to the
// recorder's, each with its parent: the harness's run span hangs under
// the driver's RunSingle span of the same cell, its phases under run,
// cluster launch and every engine span under execute.
func (r *recorder) adopt(events []obs.Event) {
	// each visits the scoped complete-events of the harness track
	// (onHarness) or of every other track.
	each := func(onHarness bool, fn func(ev obs.Event, cell, rest string)) {
		for _, ev := range events {
			if ev.Phase != obs.PhaseComplete {
				continue
			}
			if cell, rest, ok := splitTrack(ev.Track); ok && (rest == "harness") == onHarness {
				fn(ev, cell, rest)
			}
		}
	}
	add := func(ev obs.Event, cell, rest string, parent int, blocking bool) int {
		id := len(r.spans) + 1
		r.spans = append(r.spans, span{ID: id, Parent: parent, Name: ev.Name, Track: rest, Cell: cell, Blocking: blocking, Start: ev.Start, Dur: ev.Dur})
		return id
	}
	// A span is recorded when it ends, so children precede their parents
	// in the ring; place parents first so that IDs ascend down the tree.
	run, execute := map[string]int{}, map[string]int{}
	each(true, func(ev obs.Event, cell, rest string) {
		if ev.Name == spanRun {
			run[cell] = add(ev, cell, rest, r.runSingle[cell], true)
		}
	})
	each(true, func(ev obs.Event, cell, rest string) {
		switch ev.Name {
		case spanExecute:
			execute[cell] = add(ev, cell, rest, run[cell], true)
		case spanResultCal:
			add(ev, cell, rest, run[cell], true)
		}
	})
	each(true, func(ev obs.Event, cell, rest string) {
		if ev.Name == spanLaunch {
			add(ev, cell, rest, execute[cell], true)
		}
	})
	each(false, func(ev obs.Event, cell, rest string) {
		if execute[cell] == 0 {
			return // the ring overwrote this cell's execute span
		}
		if rest == "sender" && ev.Name == spanIngest {
			// Preload ingest ends before execute starts and blocks the
			// run; stream ingest overlaps execute on its own goroutine.
			ex := r.spans[execute[cell]-1]
			add(ev, cell, rest, run[cell], ev.Start+ev.Dur <= ex.Start)
			return
		}
		add(ev, cell, rest, execute[cell], false)
	})
}

// computeSelf fills every span's self time: its duration minus the
// union of its blocking children's intervals, clipped to the span.
func computeSelf(spans []span) {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Blocking {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered time.Duration
		cursor := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.end(), s.end())
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		s.Self = s.Dur - covered
	}
}

// blockingSelfSum adds the self times of the blocking spans in the
// subtree of root. The blocking spans partition root's interval, so the
// sum equals root's duration when every span was parented correctly.
func blockingSelfSum(spans []span, root int) time.Duration {
	in := map[int]bool{root: true}
	var sum time.Duration
	for _, s := range spans { // parents precede children by construction
		if s.ID == root || (s.Blocking && in[s.Parent]) {
			in[s.ID] = true
			sum += s.Self
		}
	}
	return sum
}

// traceFile is what bench/out/trace_<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// TracedRepNs is the traced rep's wall time; BlockingSelfSumNs is the
	// sum of self times over the blocking spans beneath it.
	TracedRepNs       time.Duration `json:"tracedRepNs"`
	BlockingSelfSumNs time.Duration `json:"blockingSelfSumNs"`
	DroppedEvents     uint64        `json:"droppedEvents"`
	Spans             []span        `json:"spans"`
}
