package obs

import (
	"math"
	"sort"
	"strings"
	"sync"

	"beambench/internal/metrics"
)

// SnapshotSchemaVersion is the /snapshot JSON contract version. Bump it
// when a field changes meaning or disappears; adding fields is
// backward-compatible and does not bump.
const SnapshotSchemaVersion = 1

// CellState is a live cell's position in the matrix lifecycle.
type CellState string

const (
	// CellPending is a matrix cell the scheduler has not started yet.
	CellPending CellState = "pending"
	// CellRunning is a cell with a run currently executing.
	CellRunning CellState = "running"
	// CellDone is a cell whose runs all completed.
	CellDone CellState = "done"
	// CellSkipped is a cell whose runner rejected the pipeline.
	CellSkipped CellState = "skipped"
	// CellFailed is a cell whose run returned an error.
	CellFailed CellState = "failed"
)

// LagSample is one partition's consumer lag at scrape time: end offset
// minus the consumers' fetch position.
type LagSample struct {
	Topic     string `json:"topic"`
	Partition int    `json:"partition"`
	Lag       int64  `json:"lag"`
}

// WatermarkLag is one operator's frontier-relative watermark lag at
// scrape time, in seconds (see the package comment for the semantics).
type WatermarkLag struct {
	Operator string  `json:"operator"`
	LagSec   float64 `json:"lagSec"`
}

// StageSnapshot is one pipeline stage's throughput view at scrape time.
type StageSnapshot struct {
	Name string `json:"name"`
	// Records is the total marked through the stage so far (monotone
	// over the cell's lifetime — stages accumulate across runs).
	Records int64 `json:"records"`
	// CurrentRate is the in-flight one-second window count, the
	// instantaneous rate signal.
	CurrentRate int64 `json:"currentRate"`
}

// CellSnapshot is one matrix cell's view at scrape time.
type CellSnapshot struct {
	Key      string    `json:"key"`
	State    CellState `json:"state"`
	RunsDone int       `json:"runsDone"`
	// SkipReason carries the unsupported-transform message for skipped
	// cells.
	SkipReason string `json:"skipReason,omitempty"`
	// InputRecords / OutputRecords are the benchmark topics' end
	// offsets — for a running cell scraped live from the broker, for a
	// finished cell the last observed values.
	InputRecords  int64 `json:"inputRecords"`
	OutputRecords int64 `json:"outputRecords"`
	// Stages lists per-stage throughput, sorted by stage name for a
	// byte-stable feed.
	Stages []StageSnapshot `json:"stages,omitempty"`
	// Latency is the cell's event-time latency sketch so far; nil until
	// the first run's result calculation lands observations.
	Latency *metrics.LatencySummary `json:"latency,omitempty"`
	// ConsumerLag and WatermarkLag are live only while a run executes;
	// both empty on finished cells.
	ConsumerLag  []LagSample    `json:"consumerLag,omitempty"`
	WatermarkLag []WatermarkLag `json:"watermarkLag,omitempty"`
}

// Progress counts the matrix cells by state.
type Progress struct {
	Total   int `json:"total"`
	Pending int `json:"pending"`
	Running int `json:"running"`
	Done    int `json:"done"`
	Skipped int `json:"skipped"`
	Failed  int `json:"failed"`
}

// Snapshot is one consistent view of the whole run, the /snapshot JSON
// payload and the input of the -watch dashboard. Cells appear in
// registration order (the harness registers them in canonical matrix
// order).
type Snapshot struct {
	Schema int `json:"schema"`
	// Records and Runs echo the benchmark configuration so a consumer
	// can derive per-record rates without a side channel.
	Records int `json:"records"`
	Runs    int `json:"runs"`
	// UptimeSec is the plane's age — scrape deltas divide by this.
	UptimeSec float64        `json:"uptimeSec"`
	Progress  Progress       `json:"progress"`
	Cells     []CellSnapshot `json:"cells"`
}

// CellSources are the live handles a cell's current run exposes: the
// one description of a run's live state, read per scrape by the plane
// and per tick by the Monitor. Every field is optional; nil fields
// simply yield no samples. All of them must be safe for concurrent use
// at scrape cadence — the plane calls them from the HTTP handler
// goroutine and the Monitor from its ticker while the run executes (the collector is internally locked, gauges are atomics,
// and the broker accessors take broker-internal locks; none of these
// sit on the per-record hot path).
type CellSources struct {
	// Collector is the cell's metrics collector (stages + latency).
	Collector *metrics.Collector
	// Tracer is the run-scoped tracer whose gauge registry carries the
	// engines' watermark gauges.
	Tracer *Tracer
	// ConsumerLag samples per-partition consumer lag from the run's
	// broker.
	ConsumerLag func() []LagSample
	// TopicEnds reports the input and output topics' record counts
	// (end offsets); ok=false when the broker cannot answer (topic torn
	// down mid-run).
	TopicEnds func() (in, out int64, ok bool)
}

// LiveCell is one matrix cell's registration on the plane. The harness
// drives its lifecycle: StartRun when a run launches, EndRun when it
// finishes, Finish when the cell completes. A nil LiveCell no-ops.
type LiveCell struct {
	key string

	mu         sync.Mutex
	state      CellState
	runsDone   int
	skipReason string
	src        CellSources
	lastIn     int64
	lastOut    int64
}

// Plane is the live telemetry plane: the registry of matrix cells the
// exposition server snapshots. A nil *Plane is a valid disabled plane —
// every method no-ops and returns zero values — so the harness threads
// it unconditionally, matching the package's nil-safe contract.
type Plane struct {
	clock *Tracer // anchor for UptimeSec; never exported

	mu      sync.Mutex
	records int
	runs    int
	cells   map[string]*LiveCell
	order   []string
}

// NewPlane builds an empty plane. records and runs echo the benchmark
// configuration into every snapshot.
func NewPlane(records, runs int) *Plane {
	return &Plane{
		clock:   NewTracer(1),
		cells:   make(map[string]*LiveCell),
		records: records,
		runs:    runs,
	}
}

// Expect pre-registers cells as pending, in the given order — the
// harness passes the canonical matrix order so the dashboard's row
// order matches the report's. Nil-safe.
func (p *Plane) Expect(keys []string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, k := range keys {
		p.cellLocked(k)
	}
}

// Cell returns the cell registered under key, creating it (pending) on
// first use. A nil plane returns a nil cell, whose methods no-op.
func (p *Plane) Cell(key string) *LiveCell {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cellLocked(key)
}

func (p *Plane) cellLocked(key string) *LiveCell {
	if lc, ok := p.cells[key]; ok {
		return lc
	}
	lc := &LiveCell{key: key, state: CellPending}
	p.cells[key] = lc
	p.order = append(p.order, key)
	return lc
}

// StartRun attaches a run's live sources and marks the cell running.
// Nil-safe.
func (lc *LiveCell) StartRun(src CellSources) {
	if lc == nil {
		return
	}
	lc.mu.Lock()
	lc.state = CellRunning
	lc.src = src
	lc.mu.Unlock()
}

// EndRun records a completed run and detaches the run's broker-backed
// sources (the broker is about to be discarded), keeping the final
// topic end offsets and the collector, whose stage totals and latency
// sketch persist across runs. Nil-safe.
func (lc *LiveCell) EndRun() {
	if lc == nil {
		return
	}
	lc.mu.Lock()
	if lc.src.TopicEnds != nil {
		if in, out, ok := lc.src.TopicEnds(); ok {
			lc.lastIn, lc.lastOut = in, out
		}
	}
	lc.runsDone++
	lc.src.ConsumerLag = nil
	lc.src.TopicEnds = nil
	lc.src.Tracer = nil
	lc.mu.Unlock()
}

// Finish moves the cell to a terminal state (done, skipped, or
// failed); reason carries the skip or failure message. Nil-safe.
func (lc *LiveCell) Finish(state CellState, reason string) {
	if lc == nil {
		return
	}
	lc.mu.Lock()
	lc.state = state
	lc.skipReason = reason
	lc.mu.Unlock()
}

// snapshot materializes the cell's view. Called from the plane's
// scrape path only.
func (lc *LiveCell) snapshot() CellSnapshot {
	lc.mu.Lock()
	state := lc.state
	runsDone := lc.runsDone
	reason := lc.skipReason
	src := lc.src
	in, out := lc.lastIn, lc.lastOut
	lc.mu.Unlock()

	cs := src.read()
	cs.Key = lc.key
	cs.State = state
	cs.RunsDone = runsDone
	cs.SkipReason = reason
	cs.InputRecords, cs.OutputRecords = in, out
	if src.TopicEnds != nil {
		if i, o, ok := src.TopicEnds(); ok {
			cs.InputRecords, cs.OutputRecords = i, o
		}
	}
	if lat := src.Collector.LatencySummary(); lat.Count > 0 {
		cs.Latency = &lat
	}
	return cs
}

// Snapshot takes one consistent view of the plane. Consistency is
// per-cell: each cell's fields are read under its own lock, so a cell
// never mixes two runs' sources, but cells scraped early in the walk
// may be one run ahead of cells scraped late — the dashboard tolerance,
// not a correctness issue. Nil-safe: a nil plane yields a zero
// snapshot.
func (p *Plane) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{Schema: SnapshotSchemaVersion}
	}
	p.mu.Lock()
	order := append([]string(nil), p.order...)
	cells := make([]*LiveCell, 0, len(order))
	for _, k := range order {
		cells = append(cells, p.cells[k])
	}
	records, runs := p.records, p.runs
	p.mu.Unlock()

	snap := Snapshot{
		Schema:    SnapshotSchemaVersion,
		Records:   records,
		Runs:      runs,
		UptimeSec: p.clock.Now().Seconds(),
		Cells:     make([]CellSnapshot, 0, len(cells)),
	}
	for _, lc := range cells {
		cs := lc.snapshot()
		snap.Cells = append(snap.Cells, cs)
		snap.Progress.Total++
		switch cs.State {
		case CellPending:
			snap.Progress.Pending++
		case CellRunning:
			snap.Progress.Running++
		case CellDone:
			snap.Progress.Done++
		case CellSkipped:
			snap.Progress.Skipped++
		case CellFailed:
			snap.Progress.Failed++
		}
	}
	return snap
}

// read is the one read of a run's live sources, shared by the Plane
// (per scrape, in LiveCell.snapshot) and the Monitor (per tick): it
// fills a snapshot's consumer lag, watermark lag and stage rates, with
// stages sorted by name for a byte-stable feed. Topic ends and the
// latency sketch are the snapshot's own additions, so a Monitor tick
// never pays for them.
func (src CellSources) read() CellSnapshot {
	var cs CellSnapshot
	if src.ConsumerLag != nil {
		cs.ConsumerLag = src.ConsumerLag()
	}
	cs.WatermarkLag = WatermarkLags(src.Tracer)
	src.Collector.EachStage(func(s *metrics.Stage) {
		cs.Stages = append(cs.Stages, StageSnapshot{
			Name:        s.Name(),
			Records:     s.Records(),
			CurrentRate: s.Current(),
		})
	})
	sort.Slice(cs.Stages, func(i, j int) bool { return cs.Stages[i].Name < cs.Stages[j].Name })
	return cs
}

// endOfTimeNanos matches watermark.EndOfTime.UnixNano(): an operator
// whose watermark gauge holds it has drained and reports zero lag.
// (Duplicated as a constant to keep obs free of engine imports.)
const endOfTimeNanos = math.MaxInt64

// WatermarkLags converts a run-scoped tracer's watermark gauges into
// frontier-relative lag (see the package comment): the most advanced
// live watermark defines the frontier, each operator reports its
// distance behind it, a drained operator (EndOfTime) reports zero, and
// a gauge never set yields no sample. Gauge names arrive fully scoped
// ("cell/runN/watermark-lag/op"); the operator label is the bare
// segment after the "watermark-lag/" marker. Nil-safe.
func WatermarkLags(tr *Tracer) []WatermarkLag {
	gauges := tr.Gauges()
	if len(gauges) == 0 {
		return nil
	}
	var frontier int64
	for _, g := range gauges {
		v := g.Load()
		if v != 0 && v != endOfTimeNanos && v > frontier {
			frontier = v
		}
	}
	out := make([]WatermarkLag, 0, len(gauges))
	for _, g := range gauges {
		v := g.Load()
		if v == 0 {
			continue
		}
		lag := 0.0
		if v != endOfTimeNanos {
			lag = float64(frontier-v) / 1e9
			if lag < 0 {
				lag = 0
			}
		}
		out = append(out, WatermarkLag{Operator: operatorLabel(g.Name()), LagSec: lag})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Operator < out[j].Operator })
	return out
}

// operatorLabel strips the scope prefix up to and including the
// "watermark-lag/" marker, leaving the operator name the engine chose.
func operatorLabel(name string) string {
	const marker = "watermark-lag/"
	if i := strings.Index(name, marker); i >= 0 {
		return name[i+len(marker):]
	}
	return name
}
