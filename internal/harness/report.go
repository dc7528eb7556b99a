package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"

	"beambench/internal/metrics"
	"beambench/internal/obs"
	"beambench/internal/queries"
	"beambench/internal/stats"
)

// Cell aggregates all runs of one setup.
type Cell struct {
	Setup Setup
	// TimesSec holds the execution times in seconds, in run order.
	TimesSec []float64
	// Summary holds the derived statistics.
	Summary stats.Summary
	// OutputRecords is the output count of the runs (guarded to agree
	// across runs for every query but Sample; see RunCell).
	OutputRecords int64
	// OutputRecordsPerRun holds every run's output count, in run order.
	OutputRecordsPerRun []int64
	// Latency is the cell's per-record event-time latency distribution
	// across all runs; nil unless Config.CollectMetrics.
	Latency *metrics.LatencySummary
	// Stages holds per-stage throughput in engine execution order; nil
	// unless Config.CollectMetrics.
	Stages []metrics.StageSummary
	// Gauges holds the cell's sampled lag/rate gauge summaries merged
	// across runs (sample-weighted means, per-gauge maxima); nil unless
	// Config.Trace was set.
	Gauges []obs.GaugeSummary
	// Skipped marks a setup its runner cannot execute; SkipReason holds
	// the unsupported-transform error. A skipped cell carries no runs.
	Skipped    bool
	SkipReason string
}

// Report holds the aggregated benchmark results.
type Report struct {
	// Records is the workload size used.
	Records int
	// Runs is the repetitions per cell.
	Runs int
	// Parallelisms lists the benchmarked parallelism factors.
	Parallelisms []int
	// Fusion is the Beam translation mode the matrix ran with
	// (default/on/off), so fused and unfused reports stay
	// distinguishable downstream.
	Fusion string
	// Ingest is the ingestion mode the matrix ran with
	// (preload/stream): preload-mode and sustained-load reports measure
	// different things (drain throughput vs. processing delay at an
	// offered rate) and must stay distinguishable downstream.
	Ingest string
	// RateRecordsPerSec is the streaming sender's configured rate; 0
	// means unthrottled (or preload mode).
	RateRecordsPerSec int
	// Host records the machine and scheduler the matrix ran on.
	Host Host
	// Cells holds one aggregate per setup, in insertion order.
	Cells []*Cell

	byKey map[Setup]*Cell
}

// Host is what a report's times depend on besides the code: the
// host's core count, the Go scheduler's processor count, how many
// cells ran at once, and the toolchain. It is recorded, not
// configured.
type Host struct {
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"goVersion"`
}

// currentHost reads the running process's host facts for a matrix run
// on the given number of workers.
func currentHost(workers int) Host {
	return Host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    max(workers, 1),
		GoVersion:  runtime.Version(),
	}
}

// String renders the host facts for the text header above the figures.
func (h Host) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d workers=%d %s", h.NumCPU, h.GOMAXPROCS, h.Workers, h.GoVersion)
}

// BuildReport aggregates raw run results into a report.
func BuildReport(cfg Config, results []RunResult) (*Report, error) {
	rep := &Report{
		Records:           cfg.Records,
		Runs:              cfg.Runs,
		Parallelisms:      append([]int(nil), cfg.Parallelisms...),
		Fusion:            cfg.Fusion.String(),
		Ingest:            cfg.Ingest.String(),
		RateRecordsPerSec: cfg.RateRecordsPerSec,
		Host:              currentHost(cfg.Workers),
		byKey:             make(map[Setup]*Cell),
	}
	for _, res := range results {
		cell, ok := rep.byKey[res.Setup]
		if !ok {
			cell = &Cell{Setup: res.Setup}
			rep.byKey[res.Setup] = cell
			rep.Cells = append(rep.Cells, cell)
			// Anchor the cell's headline count on the first result seen,
			// overwritten below if run 0 shows up later.
			cell.OutputRecords = res.OutputRecords
		}
		if res.Skipped {
			cell.Skipped = true
			cell.SkipReason = res.SkipReason
			continue
		}
		// Cell.OutputRecords is the count the nondeterminism guard in
		// RunCell anchors on — run 0's — not whichever run happened to be
		// aggregated last (for Sample cells the per-run counts legitimately
		// differ, and last-write-wins silently reported an arbitrary one).
		if res.Run == 0 {
			cell.OutputRecords = res.OutputRecords
		}
		cell.TimesSec = append(cell.TimesSec, res.ExecutionTime.Seconds())
		cell.OutputRecordsPerRun = append(cell.OutputRecordsPerRun, res.OutputRecords)
		if len(res.Gauges) > 0 {
			cell.Gauges = obs.MergeGaugeSummaries(cell.Gauges, res.Gauges)
		}
	}
	for _, cell := range rep.Cells {
		if cell.Skipped {
			continue // no runs to summarize
		}
		summary, err := stats.Summarize(cell.TimesSec)
		if err != nil {
			return nil, fmt.Errorf("harness: summarize %s: %w", cell.Setup.Label(), err)
		}
		cell.Summary = summary
	}
	return rep, nil
}

// Cell returns the aggregate for a setup.
func (rep *Report) Cell(setup Setup) (*Cell, bool) {
	c, ok := rep.byKey[setup]
	return c, ok
}

// AttachMetrics fills every cell's Latency and Stages blocks from the
// telemetry registry collected while the matrix ran. A nil registry
// (telemetry off) leaves the report unchanged.
func (rep *Report) AttachMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	for _, c := range rep.Cells {
		col, ok := reg.Get(cellKey(c.Setup))
		if !ok {
			continue
		}
		lat := col.LatencySummary()
		c.Latency = &lat
		c.Stages = col.StageSummaries()
	}
}

// FormatLatency renders the telemetry report: per-record event-time
// latency quantiles and per-stage throughput for every cell, in the
// report's canonical order. Requires a report built with
// Config.CollectMetrics.
func (rep *Report) FormatLatency() (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Event-Time Latency and Per-Stage Throughput (records=%d, runs=%d%s)\n",
		rep.Records, rep.Runs, rep.ingestLabel())
	any := false
	for _, c := range rep.Cells {
		if c.Latency == nil {
			continue
		}
		any = true
		fmt.Fprintf(&sb, "  %-28s p50 %9.3fs  p90 %9.3fs  p99 %9.3fs  max %9.3fs  (n=%d)\n",
			cellKey(c.Setup), c.Latency.P50, c.Latency.P90, c.Latency.P99, c.Latency.Max, c.Latency.Count)
		for _, s := range c.Stages {
			fmt.Fprintf(&sb, "      %-36s %10d rec  %10.0f rec/s mean  %10.0f rec/s peak\n",
				s.Name, s.Records, s.MeanRate, s.PeakRate)
		}
	}
	if !any {
		return "", fmt.Errorf("harness: report carries no latency data (run with CollectMetrics / -latency)")
	}
	return sb.String(), nil
}

// ErrSkippedCell is returned for cells recorded as skipped: the setup's
// runner rejected the pipeline as unsupported, so no timings exist.
var ErrSkippedCell = errors.New("harness: setup skipped (unsupported)")

// Mean returns a cell's mean execution time in seconds.
func (rep *Report) Mean(setup Setup) (float64, error) {
	c, ok := rep.byKey[setup]
	if !ok {
		return 0, fmt.Errorf("%w: %s %s", ErrMissingCell, setup.Label(), setup.Query)
	}
	if c.Skipped {
		return 0, fmt.Errorf("%w: %s %s", ErrSkippedCell, setup.Label(), setup.Query)
	}
	return c.Summary.Mean, nil
}

// SlowdownFactor computes sf(system, query) exactly as in Section
// III-C3: per parallelism, the ratio of the Beam mean to the native
// mean, averaged over parallelisms.
func (rep *Report) SlowdownFactor(sys System, q queries.Query) (float64, error) {
	beamMeans := make([]float64, 0, len(rep.Parallelisms))
	nativeMeans := make([]float64, 0, len(rep.Parallelisms))
	for _, p := range rep.Parallelisms {
		bm, err := rep.Mean(Setup{System: sys, API: APIBeam, Query: q, Parallelism: p})
		if err != nil {
			return 0, err
		}
		nm, err := rep.Mean(Setup{System: sys, API: APINative, Query: q, Parallelism: p})
		if err != nil {
			return 0, err
		}
		beamMeans = append(beamMeans, bm)
		nativeMeans = append(nativeMeans, nm)
	}
	return stats.SlowdownFactor(beamMeans, nativeMeans)
}

// RelStdDev returns the relative standard deviation for a
// system-query-SDK combination with the parallelism runs pooled, the
// quantity of Figure 10 (the paper averages over parallelisms).
func (rep *Report) RelStdDev(sys System, api API, q queries.Query) (float64, error) {
	var devs []float64
	for _, p := range rep.Parallelisms {
		c, ok := rep.byKey[Setup{System: sys, API: api, Query: q, Parallelism: p}]
		if !ok {
			return 0, fmt.Errorf("%w: %s", ErrMissingCell, q)
		}
		if c.Skipped {
			return 0, fmt.Errorf("%w: %s", ErrSkippedCell, c.Setup.Label())
		}
		devs = append(devs, c.Summary.RelStdDev)
	}
	return stats.Mean(devs), nil
}

// figureForQuery maps paper figure numbers 6-9 to queries.
var figureForQuery = map[int]queries.Query{
	6: queries.Identity,
	7: queries.Sample,
	8: queries.Projection,
	9: queries.Grep,
}

// FormatFigure renders one of the paper's result figures (6-11) as text.
func (rep *Report) FormatFigure(n int) (string, error) {
	switch {
	case n >= 6 && n <= 9:
		return rep.formatExecutionTimes(n)
	case n == 10:
		return rep.formatRelStdDev()
	case n == 11:
		return rep.formatSlowdown()
	default:
		return "", fmt.Errorf("harness: no figure %d (supported: 6-11)", n)
	}
}

// ingestLabel renders the ingestion-mode suffix for text headers: empty
// in the historical preload mode, so preexisting report consumers see
// unchanged output, and an explicit marker for sustained-load reports.
func (rep *Report) ingestLabel() string {
	if rep.Ingest != IngestStream.String() {
		return ""
	}
	if rep.RateRecordsPerSec > 0 {
		return fmt.Sprintf(", ingest=stream@%d rec/s", rep.RateRecordsPerSec)
	}
	return ", ingest=stream"
}

func (rep *Report) formatExecutionTimes(n int) (string, error) {
	q := figureForQuery[n]
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure %d: Average Execution Times - %s Query (records=%d, runs=%d%s)\n",
		n, q, rep.Records, rep.Runs, rep.ingestLabel())
	for _, sys := range Systems() {
		for _, api := range APIs() {
			for _, p := range rep.Parallelisms {
				setup := Setup{System: sys, API: api, Query: q, Parallelism: p}
				mean, err := rep.Mean(setup)
				switch {
				case errors.Is(err, ErrSkippedCell):
					c := rep.byKey[setup]
					fmt.Fprintf(&sb, "  %-16s %10s   (%s)\n", setup.Label(), "skipped", c.SkipReason)
				case err != nil:
					return "", err
				default:
					fmt.Fprintf(&sb, "  %-16s %10.3f s\n", setup.Label(), mean)
				}
			}
		}
	}
	return sb.String(), nil
}

func (rep *Report) formatRelStdDev() (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 10: Relative Standard Deviation for System-Query-SDK Combinations (runs=%d)\n", rep.Runs)
	for _, sys := range Systems() {
		for _, api := range APIs() {
			for _, q := range figure10QueryOrder() {
				label := Setup{System: sys, API: api, Query: q}.SDKLabel()
				dev, err := rep.RelStdDev(sys, api, q)
				switch {
				case errors.Is(err, ErrSkippedCell):
					fmt.Fprintf(&sb, "  %-24s %8s\n", label, "skipped")
				case err != nil:
					return "", err
				default:
					fmt.Fprintf(&sb, "  %-24s %8.4f\n", label, dev)
				}
			}
		}
	}
	return sb.String(), nil
}

// figure10QueryOrder returns the Figure 10 row order (alphabetical
// query names within each system-SDK block, as in the paper, extended
// with the stateful additions).
func figure10QueryOrder() []queries.Query {
	return []queries.Query{
		queries.Grep, queries.Identity, queries.Join, queries.Projection,
		queries.Sample, queries.SlidingSum, queries.WindowedCount,
	}
}

func (rep *Report) formatSlowdown() (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 11: Slowdown Factor sf(dsps, query) (records=%d, runs=%d%s)\n",
		rep.Records, rep.Runs, rep.ingestLabel())
	for _, sys := range Systems() {
		for _, q := range queries.All() {
			label := fmt.Sprintf("%s %s", sys, q)
			sf, err := rep.SlowdownFactor(sys, q)
			switch {
			case errors.Is(err, ErrSkippedCell):
				fmt.Fprintf(&sb, "  %-18s %8s\n", label, "skipped")
			case err != nil:
				return "", err
			default:
				fmt.Fprintf(&sb, "  %-18s %8.2f\n", label, sf)
			}
		}
	}
	return sb.String(), nil
}

// FormatTableIII renders the per-run execution times of the identity
// query on native Flink, the paper's Table III.
func (rep *Report) FormatTableIII() (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table III: Execution Times for the Identity Query on Flink (native)\n")
	fmt.Fprintf(&sb, "  %-14s", "Number of Run")
	cells := make([]*Cell, 0, len(rep.Parallelisms))
	for _, p := range rep.Parallelisms {
		c, ok := rep.byKey[Setup{System: SystemFlink, API: APINative, Query: queries.Identity, Parallelism: p}]
		if !ok {
			return "", fmt.Errorf("%w: Flink native identity P%d", ErrMissingCell, p)
		}
		cells = append(cells, c)
		fmt.Fprintf(&sb, "  Parallelism = %d", p)
	}
	sb.WriteString("\n")
	for run := range rep.Runs {
		fmt.Fprintf(&sb, "  %-14d", run+1)
		for _, c := range cells {
			if run < len(c.TimesSec) {
				fmt.Fprintf(&sb, "  %13.3fs ", c.TimesSec[run])
			}
		}
		sb.WriteString("\n")
	}
	return sb.String(), nil
}

// FormatTableI renders the paper's descriptive system comparison.
func FormatTableI() string {
	return strings.Join([]string{
		"Table I: Comparison of Apache Flink, Apache Spark Streaming, and Apache Apex",
		"  Criteria                  Flink             Spark Streaming   Apex",
		"  Mainly written in         Java, Scala       Scala/Java/Py     Java",
		"  App development           Java/Scala/Py     Scala/Java/Py     Java",
		"  Data processing           Tuple-by-tuple    Micro-batch       Tuple-by-tuple",
		"  Processing guarantees     Exactly-once      Exactly-once      Exactly-once",
		"",
	}, "\n")
}

// FormatTableII renders the query definitions with the actual workload
// selectivities.
func FormatTableII(records, grepHits int) string {
	var sb strings.Builder
	sb.WriteString("Table II: Overview of the Benchmark Queries\n")
	for _, q := range queries.All() {
		fmt.Fprintf(&sb, "  %-11s %s\n", q, q.Description())
	}
	fmt.Fprintf(&sb, "  Workload: %d records; grep matches %d records (%.2f%%); sample keeps ~%.0f%%.\n",
		records, grepHits, 100*float64(grepHits)/float64(max(records, 1)), queries.SampleFraction*100)
	return sb.String()
}

// CellJSON is the serialized form of a cell — the stable schema
// cmd/benchdiff and the committed BENCH_* baselines consume. Cells are
// written in canonical matrix order with stage and gauge lists sorted
// by name, so two reports of the same configuration differ only where
// the numbers differ and baselines diff cleanly under git.
type CellJSON struct {
	System              string                  `json:"system"`
	API                 string                  `json:"api"`
	Query               string                  `json:"query"`
	Parallelism         int                     `json:"parallelism"`
	TimesSec            []float64               `json:"timesSec"`
	MeanSec             float64                 `json:"meanSec"`
	RelStdDev           float64                 `json:"relStdDev"`
	OutputRecords       int64                   `json:"outputRecords"`
	OutputRecordsPerRun []int64                 `json:"outputRecordsPerRun,omitempty"`
	Latency             *metrics.LatencySummary `json:"latency,omitempty"`
	Stages              []metrics.StageSummary  `json:"stages,omitempty"`
	Gauges              []obs.GaugeSummary      `json:"gauges,omitempty"`
	Skipped             bool                    `json:"skipped,omitempty"`
	SkipReason          string                  `json:"skipReason,omitempty"`
}

// Key renders the cell's benchmark-matrix identity, matching the
// harness's internal cell key ("Flink Beam P2 WindowedCount").
func (c *CellJSON) Key() string {
	if c.API == APIBeam.String() {
		return fmt.Sprintf("%s Beam P%d %s", c.System, c.Parallelism, c.Query)
	}
	return fmt.Sprintf("%s P%d %s", c.System, c.Parallelism, c.Query)
}

// ReportJSON is the serialized report.
type ReportJSON struct {
	Records           int    `json:"records"`
	Runs              int    `json:"runs"`
	Parallelisms      []int  `json:"parallelisms"`
	Fusion            string `json:"fusion"`
	Ingest            string `json:"ingest"`
	RateRecordsPerSec int    `json:"rateRecordsPerSec,omitempty"`
	// Host is nil in reports recorded before host facts were kept.
	Host  *Host      `json:"host,omitempty"`
	Cells []CellJSON `json:"cells"`
}

// Write serializes with the report encoder settings (two-space
// indent); WriteJSON and the round-trip property both go through here,
// so a parsed report re-serializes byte-identically.
func (rj *ReportJSON) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rj)
}

// ParseReportJSON decodes a report previously written by WriteJSON —
// the entry point of cmd/benchdiff. Unknown fields are rejected so a
// schema drift between a baseline and the binary comparing it fails
// loudly instead of silently reading zeros.
func ParseReportJSON(r io.Reader) (*ReportJSON, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var rj ReportJSON
	if err := dec.Decode(&rj); err != nil {
		return nil, fmt.Errorf("harness: parse report JSON: %w", err)
	}
	return &rj, nil
}

// JSON builds the serializable form of the report: cells in canonical
// matrix order (query, then system, API, parallelism — the
// MatrixSetups order), stage and gauge lists sorted by name.
func (rep *Report) JSON() *ReportJSON {
	host := rep.Host
	out := &ReportJSON{
		Records:           rep.Records,
		Runs:              rep.Runs,
		Parallelisms:      rep.Parallelisms,
		Fusion:            rep.Fusion,
		Ingest:            rep.Ingest,
		RateRecordsPerSec: rep.RateRecordsPerSec,
		Host:              &host,
	}
	cells := append([]*Cell(nil), rep.Cells...)
	sort.SliceStable(cells, func(i, j int) bool { return canonicalLess(cells[i].Setup, cells[j].Setup) })
	for _, c := range cells {
		stages := append([]metrics.StageSummary(nil), c.Stages...)
		sort.Slice(stages, func(i, j int) bool { return stages[i].Name < stages[j].Name })
		gauges := append([]obs.GaugeSummary(nil), c.Gauges...)
		sort.Slice(gauges, func(i, j int) bool { return gauges[i].Name < gauges[j].Name })
		out.Cells = append(out.Cells, CellJSON{
			System:              c.Setup.System.String(),
			API:                 c.Setup.API.String(),
			Query:               c.Setup.Query.String(),
			Parallelism:         c.Setup.Parallelism,
			TimesSec:            c.TimesSec,
			MeanSec:             c.Summary.Mean,
			RelStdDev:           c.Summary.RelStdDev,
			OutputRecords:       c.OutputRecords,
			OutputRecordsPerRun: c.OutputRecordsPerRun,
			Latency:             c.Latency,
			Stages:              stages,
			Gauges:              gauges,
			Skipped:             c.Skipped,
			SkipReason:          c.SkipReason,
		})
	}
	return out
}

// WriteJSON serializes the report for downstream tooling (benchdiff,
// the CI artifacts, the committed baselines). The output is
// deterministic for a given set of results: canonical cell order,
// name-sorted stage/gauge lists, fixed key order.
func (rep *Report) WriteJSON(w io.Writer) error {
	return rep.JSON().Write(w)
}

// canonicalLess orders setups in canonical matrix order: query (in
// queries.All() order), system, API, then parallelism — exactly the
// order MatrixSetups enumerates, so serialized reports are identically
// ordered no matter how the scheduler interleaved the cells.
func canonicalLess(a, b Setup) bool {
	if ra, rb := queryRank(a.Query), queryRank(b.Query); ra != rb {
		return ra < rb
	}
	if ra, rb := systemRank(a.System), systemRank(b.System); ra != rb {
		return ra < rb
	}
	if ra, rb := apiRank(a.API), apiRank(b.API); ra != rb {
		return ra < rb
	}
	return a.Parallelism < b.Parallelism
}

func queryRank(q queries.Query) int {
	for i, x := range queries.All() {
		if x == q {
			return i
		}
	}
	return len(queries.All())
}

func systemRank(s System) int {
	for i, x := range Systems() {
		if x == s {
			return i
		}
	}
	return len(Systems())
}

func apiRank(a API) int {
	for i, x := range APIs() {
		if x == a {
			return i
		}
	}
	return len(APIs())
}
