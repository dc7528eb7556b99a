// Package harness implements the benchmark architecture and process of
// Hesse et al. (ICDCS 2019), Figure 5 and Section III-A:
//
//  1. Data ingestion — a data sender loads the AOL-style workload into
//     the input topic (one partition, replication factor 1, so record
//     order is preserved).
//  2. Program execution — a fresh engine cluster per run executes the
//     query, reading from and writing to the broker; every query runs
//     for each system, API kind (native vs. Beam) and parallelism.
//  3. Result calculation — the execution time is the difference between
//     the LogAppendTime timestamps of the last and first record in the
//     output topic, computed from broker state only.
//
// Config.Ingest selects how phases 1 and 2 relate. In preload mode
// (the default) the sender completes before the cluster launches, so
// execution time measures pure drain throughput and event-time latency
// is dominated by queueing from time zero. In stream mode the sender
// runs concurrently with the engine — as in the paper's Figure 5 — and
// is paced at Config.RateRecordsPerSec on the simulated clock, so the
// latency quantiles measure processing delay under a controlled offered
// load and execution time stretches to at least the sending window.
// The two modes produce identical outputs (byte-identical in order at
// parallelism 1, as an order-insensitive multiset above it): every
// engine source terminates via the target-record-count contract
// (broker.EndOfInput) rather than a startup snapshot of the topic's
// end offsets.
package harness

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"beambench/internal/aol"
	"beambench/internal/beam"
	_ "beambench/internal/beam/runners" // register the bundled runners
	"beambench/internal/broker"
	"beambench/internal/metrics"
	"beambench/internal/obs"
	"beambench/internal/queries"
	"beambench/internal/simcost"
)

// System enumerates the benchmarked DSPSs.
type System int

const (
	// SystemFlink is the Apache-Flink-style engine.
	SystemFlink System = iota + 1
	// SystemSpark is the Apache-Spark-Streaming-style engine.
	SystemSpark
	// SystemApex is the Apache-Apex-style engine.
	SystemApex
)

// Systems lists all systems in the paper's row order (Apex, Flink,
// Spark — alphabetical, as in Figures 6-11).
func Systems() []System {
	return []System{SystemApex, SystemFlink, SystemSpark}
}

// systemNames carries the display name and the beam runner-registry
// name of each system; the harness selects engines through these maps
// rather than switch statements, so adding a system means adding rows
// here and a native executor in engines.go.
var systemNames = map[System]struct {
	display string
	runner  string
}{
	SystemFlink: {display: "Flink", runner: "flink"},
	SystemSpark: {display: "Spark", runner: "spark"},
	SystemApex:  {display: "Apex", runner: "apex"},
}

// String returns the system's display name.
func (s System) String() string {
	if n, ok := systemNames[s]; ok {
		return n.display
	}
	return fmt.Sprintf("System(%d)", int(s))
}

// RunnerName returns the system's name in the beam runner registry.
func (s System) RunnerName() string {
	if n, ok := systemNames[s]; ok {
		return n.runner
	}
	return ""
}

// API selects native engine APIs or the Beam abstraction layer.
type API int

const (
	// APINative uses the engine's own APIs.
	APINative API = iota + 1
	// APIBeam uses the Beam pipeline through the engine's runner.
	APIBeam
)

// APIs lists both API kinds, Beam first (the paper's row order).
func APIs() []API {
	return []API{APIBeam, APINative}
}

// String names the kind as in the paper's row labels.
func (a API) String() string {
	switch a {
	case APINative:
		return "native"
	case APIBeam:
		return "Beam"
	default:
		return fmt.Sprintf("API(%d)", int(a))
	}
}

// IngestMode selects how the data sender relates to query execution.
type IngestMode int

const (
	// IngestPreload loads the whole workload into the input topic before
	// the engine cluster launches — the mode of the original
	// reproduction, where event-time latency mostly measures queueing
	// from time zero. The zero value, for backward compatibility.
	IngestPreload IngestMode = iota
	// IngestStream runs the data sender concurrently with query
	// execution, pacing it at Config.RateRecordsPerSec on the simcost
	// clock — the architecture of the paper's Figure 5, and the mode in
	// which the latency quantiles measure processing delay under a
	// controlled offered load.
	IngestStream
)

// String names the mode for flags and report labels.
func (m IngestMode) String() string {
	switch m {
	case IngestPreload:
		return "preload"
	case IngestStream:
		return "stream"
	default:
		return fmt.Sprintf("IngestMode(%d)", int(m))
	}
}

// ParseIngestMode parses an -ingest flag value.
func ParseIngestMode(s string) (IngestMode, error) {
	switch s {
	case "", "preload":
		return IngestPreload, nil
	case "stream":
		return IngestStream, nil
	default:
		return 0, fmt.Errorf("harness: unknown ingest mode %q (want preload or stream)", s)
	}
}

// Setup identifies one benchmark configuration: a cell of the paper's
// twelve-per-query execution matrix.
type Setup struct {
	System      System
	API         API
	Query       queries.Query
	Parallelism int
}

// Label renders the paper's row label, e.g. "Apex Beam P1" or "Flink P2".
func (s Setup) Label() string {
	if s.API == APIBeam {
		return fmt.Sprintf("%s Beam P%d", s.System, s.Parallelism)
	}
	return fmt.Sprintf("%s P%d", s.System, s.Parallelism)
}

// SDKLabel renders the paper's Figure 10 label, e.g. "Apex Beam Grep".
func (s Setup) SDKLabel() string {
	if s.API == APIBeam {
		return fmt.Sprintf("%s Beam %s", s.System, s.Query)
	}
	return fmt.Sprintf("%s %s", s.System, s.Query)
}

// RunResult is the outcome of one benchmark run.
type RunResult struct {
	Setup Setup
	// Run is the zero-based run index within the cell.
	Run int
	// ExecutionTime is the LogAppendTime span of the output topic.
	ExecutionTime time.Duration
	// OutputRecords is the output topic's record count.
	OutputRecords int64
	// WallTime is the end-to-end run duration (all three phases).
	WallTime time.Duration
	// Skipped marks a setup its runner cannot execute (the translation
	// reported beam.ErrUnsupported): the cell is recorded with
	// SkipReason instead of aborting the whole matrix, so a capability
	// gap shows up as a skipped report cell rather than a dead run.
	Skipped bool
	// SkipReason is the unsupported-transform error message.
	SkipReason string
	// Gauges summarizes the run's sampled lag and rate gauges
	// (consumer lag per partition, watermark lag per operator, stage
	// rates); nil unless Config.Trace is set.
	Gauges []obs.GaugeSummary
}

// Config controls the benchmark.
type Config struct {
	// Records is the workload size; the paper uses 1,000,001
	// (aol.PaperRecordCount). Defaults to 50,000 — the slowdown factors
	// are dominated by per-record costs and therefore scale-invariant.
	Records int
	// Runs is the number of repetitions per setup; the paper uses 10.
	// Defaults to 5.
	Runs int
	// Parallelisms lists the parallelism factors; the paper uses {1,2}.
	Parallelisms []int
	// DatasetSeed makes the synthetic workload deterministic.
	DatasetSeed uint64
	// SampleSeed drives the sample query's selection.
	SampleSeed uint64
	// Costs is the latency calibration; nil selects
	// simcost.DefaultCosts.
	Costs *simcost.Costs
	// Noise is the run-to-run noise process; nil selects
	// simcost.DefaultNoise.
	Noise *simcost.NoiseParams
	// DisableNoise turns run noise off for deterministic tests.
	DisableNoise bool
	// SenderAcks is the data sender's producer acknowledgment level
	// (a configuration parameter of the paper's sender).
	SenderAcks broker.Acks
	// SenderBatch is the sender's producer batch size.
	SenderBatch int
	// Ingest selects when the data sender runs relative to query
	// execution: IngestPreload (default) fills the input topic before
	// the cluster launches; IngestStream runs the sender concurrently
	// with the engine, so sources consume records as they arrive.
	Ingest IngestMode
	// RateRecordsPerSec paces the streaming data sender: each record
	// charges 1/rate seconds to a simcost meter before it is sent, so
	// the offered load follows the simulated clock (including the run's
	// noise factor). 0 streams unthrottled. Only meaningful with
	// IngestStream; the preload sender always runs flat out.
	RateRecordsPerSec int
	// Fusion selects the Beam runners' translation mode for every Beam
	// cell: beam.FusionDefault keeps each runner paper-faithful (fused
	// on Apex, per-primitive elsewhere); beam.FusionOn / beam.FusionOff
	// force one mode everywhere so the fused-vs-unfused overhead is
	// measurable per engine.
	Fusion beam.FusionMode
	// CollectMetrics enables the telemetry subsystem: per-record
	// event-time latency (output append time minus input append time,
	// from broker timestamps alone) summarized per cell, and per-stage
	// throughput reported by every engine. Adds the Latency and Stages
	// blocks to the report; see internal/metrics.
	CollectMetrics bool
	// Trace, if set, records run-level spans (sender, cluster launch,
	// execution, result calculation — plus per-stage spans inside the
	// engines) and lag gauges into the tracer's ring; export it with
	// obs.WriteChromeTrace after the matrix. Each run writes under its
	// own "cell/runN" scope. nil disables tracing at zero cost on the
	// hot path (see internal/obs).
	Trace *obs.Tracer
	// GaugeInterval is the lag-sampling cadence of the per-run monitor
	// (consumer lag per partition, watermark lag per operator, stage
	// rates). Defaults to 50ms. Only meaningful with Trace set.
	GaugeInterval time.Duration
	// Plane, if set, is the live telemetry plane: the harness registers
	// every matrix cell on it (pending -> running -> done/skipped/failed)
	// and attaches each run's live sources — the cell's metrics
	// collector, the run's watermark gauges, and per-partition consumer
	// lag read straight from the run's broker — so an exposition server
	// (obs.Plane.Serve, beambench -serve) can snapshot the matrix while
	// it executes. All plane reads are pull-based at scrape cadence;
	// nothing is added to the per-record path. nil disables registration
	// at zero cost (see internal/obs).
	Plane *obs.Plane
	// CPUProfileDir, if set, writes one pprof CPU profile per matrix
	// cell (cpu_<cell>.pprof) into the directory. CPU profiling is
	// process-global, so it requires Workers <= 1.
	CPUProfileDir string
	// MemProfileDir, if set, writes one pprof heap profile per matrix
	// cell (mem_<cell>.pprof, after a GC) into the directory.
	MemProfileDir string
	// Workers is the number of matrix cells RunAll (and RunMatrix, when
	// its workers argument is <= 0) executes concurrently. Every run
	// still gets its own broker and engine cluster, so cells are
	// independent; the report ordering is identical at any worker count.
	// 0 or 1 selects the sequential path.
	Workers int
	// Progress, if set, receives human-readable progress lines. The
	// runner serializes calls, so the callback needs no locking of its
	// own even when Workers > 1.
	Progress func(msg string)
}

func (c *Config) validate() error {
	if c.Records == 0 {
		c.Records = 50_000
	}
	if c.Records < 0 {
		return fmt.Errorf("harness: negative record count %d", c.Records)
	}
	if c.Runs == 0 {
		c.Runs = 5
	}
	if c.Runs < 0 {
		return fmt.Errorf("harness: negative run count %d", c.Runs)
	}
	if len(c.Parallelisms) == 0 {
		c.Parallelisms = []int{1, 2}
	}
	for _, p := range c.Parallelisms {
		if p <= 0 {
			return fmt.Errorf("harness: invalid parallelism %d", p)
		}
	}
	if c.DatasetSeed == 0 {
		c.DatasetSeed = 42
	}
	if c.SampleSeed == 0 {
		c.SampleSeed = 7
	}
	if c.SenderAcks == 0 {
		c.SenderAcks = broker.AcksLeader
	}
	if c.SenderBatch == 0 {
		c.SenderBatch = 500
	}
	if c.SenderBatch < 0 {
		return fmt.Errorf("harness: negative sender batch %d", c.SenderBatch)
	}
	if c.Ingest != IngestPreload && c.Ingest != IngestStream {
		return fmt.Errorf("harness: invalid ingest mode %d", c.Ingest)
	}
	if c.RateRecordsPerSec < 0 {
		return fmt.Errorf("harness: negative sender rate %d", c.RateRecordsPerSec)
	}
	if c.RateRecordsPerSec > 0 && c.Ingest != IngestStream {
		// Rejecting instead of ignoring: the rate is serialized into the
		// report, and a preload report claiming an offered load that was
		// never applied would be a lie.
		return fmt.Errorf("harness: RateRecordsPerSec %d requires IngestStream", c.RateRecordsPerSec)
	}
	if c.Workers < 0 {
		return fmt.Errorf("harness: negative worker count %d", c.Workers)
	}
	if c.GaugeInterval < 0 {
		return fmt.Errorf("harness: negative gauge interval %v", c.GaugeInterval)
	}
	if c.GaugeInterval == 0 {
		c.GaugeInterval = 50 * time.Millisecond
	}
	if c.CPUProfileDir != "" && c.Workers > 1 {
		// runtime/pprof supports one CPU profile per process; concurrent
		// cells would fight over StartCPUProfile.
		return fmt.Errorf("harness: CPUProfileDir requires Workers <= 1, got %d", c.Workers)
	}
	return nil
}

// Runner executes benchmark runs over a pre-generated workload. Its
// run methods are safe for concurrent use: every run builds a fresh
// broker and cluster, and the shared state (config, costs, dataset) is
// read-only after New.
type Runner struct {
	cfg     Config
	costs   simcost.Costs
	noise   simcost.NoiseParams
	dataset [][]byte
	// grepHits is the grep query's match count, computed once in New:
	// callers consult it per run (streaming mode's pacing loop and the
	// CLIs), and the dataset is immutable, so rescanning on every call
	// was pure waste.
	grepHits int

	// metrics is the telemetry registry, nil unless Config.CollectMetrics.
	metrics *metrics.Registry
	// survivorIndexByQ caches, per query, the payload-to-input pairing
	// index the latency calculation walks.
	survivorsMu      sync.Mutex
	survivorIndexByQ map[queries.Query]*queries.SurvivorIndex

	progressMu sync.Mutex
}

// New validates the configuration and materializes the workload.
func New(cfg Config) (*Runner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	costs := simcost.DefaultCosts()
	if cfg.Costs != nil {
		costs = *cfg.Costs
	}
	noise := simcost.DefaultNoise()
	if cfg.Noise != nil {
		noise = *cfg.Noise
	}
	gen, err := aol.NewGenerator(aol.Config{
		Records:  cfg.Records,
		Seed:     cfg.DatasetSeed,
		GrepHits: -1,
	})
	if err != nil {
		return nil, err
	}
	r := &Runner{cfg: cfg, costs: costs, noise: noise, dataset: gen.All(),
		survivorIndexByQ: make(map[queries.Query]*queries.SurvivorIndex)}
	for _, rec := range r.dataset {
		if queries.GrepMatch(rec) {
			r.grepHits++
		}
	}
	if cfg.CollectMetrics {
		r.metrics = metrics.NewRegistry()
	}
	return r, nil
}

// Metrics returns the telemetry registry, or nil when
// Config.CollectMetrics is off.
func (r *Runner) Metrics() *metrics.Registry { return r.metrics }

// Config returns the validated configuration.
func (r *Runner) Config() Config { return r.cfg }

// DatasetSize reports the number of workload records.
func (r *Runner) DatasetSize() int { return len(r.dataset) }

// GrepHits reports how many workload records match the grep query
// (precomputed once in New).
func (r *Runner) GrepHits() int { return r.grepHits }

const (
	inputTopic  = "input"
	outputTopic = "output"
)

// RunSingle executes one benchmark run: ingestion, execution on a fresh
// cluster, and result calculation.
func (r *Runner) RunSingle(setup Setup, runIdx int) (RunResult, error) {
	return r.runSingle(context.Background(), setup, runIdx)
}

// runSingle is RunSingle with the scheduler's cancellation context,
// which the Beam execution path hands to the runner. Runner
// cancellation is coarse (checked before launch, not mid-run), so a
// cancelled matrix still drains at run granularity, as before.
func (r *Runner) runSingle(ctx context.Context, setup Setup, runIdx int) (RunResult, error) {
	if !setup.Query.Valid() {
		return RunResult{}, fmt.Errorf("harness: invalid query %d", setup.Query)
	}
	if setup.Parallelism <= 0 {
		return RunResult{}, fmt.Errorf("harness: invalid parallelism %d", setup.Parallelism)
	}
	wallStart := time.Now()

	// Each run traces under its own scope, so the per-run tracks and
	// gauges of concurrent cells never collide in the shared ring.
	traced := r.cfg.Trace.Scoped(cellKey(setup) + "/run" + strconv.Itoa(runIdx))
	tr := traced
	if tr == nil && r.cfg.Plane != nil {
		// Plane without -trace: the engines still need a gauge registry
		// for live watermark lag, so the run gets a private single-slot
		// tracer — gauges are real, span events overwrite one ring slot
		// and are never exported.
		tr = obs.NewTracer(1)
	}
	runSpan := tr.Span("harness", "run")
	defer runSpan.End()

	factor := 1.0
	if !r.cfg.DisableNoise {
		seed := simcost.RunSeed(
			setup.System.String(), setup.API.String(), setup.Query.String(),
			fmt.Sprint(setup.Parallelism), fmt.Sprint(runIdx))
		factor = r.noise.Factor(seed)
	}
	sim := simcost.New(factor)
	b := broker.New(broker.WithCosts(r.costs, sim))

	// Both benchmark topics: one partition, replication factor 1,
	// LogAppendTime — the paper's configuration (Section III-A).
	topicCfg := broker.TopicConfig{Partitions: 1, ReplicationFactor: 1, Timestamps: broker.LogAppendTime}
	if err := b.CreateTopic(inputTopic, topicCfg); err != nil {
		return RunResult{}, err
	}
	if err := b.CreateTopic(outputTopic, topicCfg); err != nil {
		return RunResult{}, err
	}

	// Phases 1 and 2: data ingestion and program execution. The cell's
	// collector (nil when telemetry is off) rides along so engine
	// operators report per-stage throughput while they run. Every source
	// terminates via the target-count contract (InputRecords /
	// TargetRecords), so the two phases may overlap: in preload mode the
	// sender completes before the cluster launches, in stream mode the
	// sender runs concurrently with the engine and the harness joins on
	// both.
	col := r.metrics.Collector(cellKey(setup))

	// One description of the run's live state, read two ways: the live
	// plane (if any) reads it per scrape, and the lag monitor reads it
	// on a ticker for the whole run — per-partition consumer lag,
	// per-stage rates and per-operator watermark lag. EndRun detaches
	// the broker-backed sources when the run finishes, keeping the
	// final topic offsets. The monitor is tied to the real tracer — a
	// plane-only run is scraped on demand instead of sampled, so no
	// ticker goroutine spins for it.
	src := obs.CellSources{
		Collector:   col,
		Tracer:      tr,
		ConsumerLag: consumerLagSamples(b),
		TopicEnds:   topicEnds(b),
	}
	lc := r.cfg.Plane.Cell(cellKey(setup))
	lc.StartRun(src)
	defer lc.EndRun()
	mon := obs.NewMonitor(traced, r.cfg.GaugeInterval, src)
	mon.Start()
	gauges := []obs.GaugeSummary(nil)
	monitorStopped := false
	stopMonitor := func() {
		if !monitorStopped {
			monitorStopped = true
			gauges = mon.Stop()
		}
	}
	defer stopMonitor()

	w := queries.Workload{
		Broker:       b,
		InputTopic:   inputTopic,
		OutputTopic:  outputTopic,
		Seed:         r.cfg.SampleSeed,
		Producer:     broker.ProducerConfig{},
		InputRecords: int64(len(r.dataset)),
	}
	if r.cfg.Ingest == IngestStream {
		// The sender gets its own cancellation handle: when execution
		// fails (or the matrix is cancelled) there is no point pacing
		// the rest of the workload in real time for a doomed run.
		senderCtx, cancelSender := context.WithCancel(ctx)
		defer cancelSender()
		senderDone := make(chan error, 1)
		go func() {
			// The sender gets its own track so the trace shows the
			// ingest window overlapping execution, as in Figure 5.
			sp := tr.Span("sender", "ingest")
			err := r.ingest(senderCtx, b, sim)
			sp.End()
			if err != nil {
				// The engine sources are blocked until the topic reaches
				// its target count; a sender that stopped early can never
				// get it there, so tear the input topic down to unblock
				// them.
				_ = b.DeleteTopic(inputTopic)
			}
			senderDone <- err
		}()
		execSpan := tr.Span("harness", "execute")
		execErr := r.execute(ctx, setup, w, sim, col, tr)
		execSpan.End()
		if execErr != nil {
			cancelSender()
		}
		sendErr := <-senderDone
		if err := ctx.Err(); err != nil {
			// Matrix cancelled mid-run: the sender abort and the topic
			// teardown are fallout, not the cause.
			return RunResult{}, err
		}
		if sendErr != nil && !errors.Is(sendErr, context.Canceled) {
			return RunResult{}, fmt.Errorf("harness: ingest: %w", sendErr)
		}
		if execErr != nil {
			return RunResult{}, fmt.Errorf("harness: execute %s run %d: %w", setup.Label(), runIdx, execErr)
		}
	} else {
		sp := tr.Span("sender", "ingest")
		err := r.ingest(ctx, b, sim)
		sp.End()
		if err != nil {
			return RunResult{}, fmt.Errorf("harness: ingest: %w", err)
		}
		execSpan := tr.Span("harness", "execute")
		err = r.execute(ctx, setup, w, sim, col, tr)
		execSpan.End()
		if err != nil {
			return RunResult{}, fmt.Errorf("harness: execute %s run %d: %w", setup.Label(), runIdx, err)
		}
	}

	// Execution is over: stop sampling before the result calculation
	// reads the broker, so post-run reads never pollute the lag series.
	stopMonitor()

	// Phase 3: result calculation from broker timestamps alone — the
	// LogAppendTime span (the paper's metric) and, with telemetry on,
	// the per-record event-time latency distribution.
	calcSpan := tr.Span("harness", "result-calc")
	defer calcSpan.End()
	first, last, n, err := b.TimeSpan(outputTopic)
	if err != nil {
		return RunResult{}, fmt.Errorf("harness: result calculation: %w", err)
	}
	var execTime time.Duration
	if n > 0 {
		execTime = last.Sub(first)
	}
	if r.metrics != nil {
		if err := r.observeLatencies(b, setup, col); err != nil {
			return RunResult{}, fmt.Errorf("harness: result calculation: %w", err)
		}
	}
	return RunResult{
		Setup:         setup,
		Run:           runIdx,
		ExecutionTime: execTime,
		OutputRecords: n,
		WallTime:      time.Since(wallStart),
		Gauges:        gauges,
	}, nil
}

// consumerLagSamples derives per-partition consumer lag for both
// benchmark topics from the broker: end offset minus the consumers'
// fetch position, per partition. A topic torn down mid-run (the
// stream sender's abort path) yields no samples.
func consumerLagSamples(b *broker.Broker) func() []obs.LagSample {
	return func() []obs.LagSample {
		var out []obs.LagSample
		for _, topic := range []string{inputTopic, outputTopic} {
			ends, err := b.EndOffsets(topic)
			if err != nil {
				continue
			}
			consumed, err := b.ConsumedOffsets(topic)
			if err != nil {
				continue
			}
			for p := range ends {
				lag := ends[p] - consumed[p]
				if lag < 0 {
					lag = 0
				}
				out = append(out, obs.LagSample{Topic: topic, Partition: p, Lag: lag})
			}
		}
		return out
	}
}

// topicEnds reports the benchmark topics' record counts for the
// plane's ingest-vs-drain view; ok=false once a topic is gone.
func topicEnds(b *broker.Broker) func() (int64, int64, bool) {
	return func() (int64, int64, bool) {
		in, err := b.RecordCount(inputTopic)
		if err != nil {
			return 0, 0, false
		}
		out, err := b.RecordCount(outputTopic)
		if err != nil {
			return 0, 0, false
		}
		return in, out, true
	}
}

// ingest is the data sender: a configurable producer streaming the
// workload into the input topic. In stream mode with a configured rate
// it is paced by the simcost clock: every record charges 1/rate seconds
// to a meter, whose realization (scaled by the run's noise factor like
// every other charge) spaces the sends. The pacing elapses real wall
// time, so the loop honors ctx — a cancelled run stops sending instead
// of finishing its paced window.
func (r *Runner) ingest(ctx context.Context, b *broker.Broker, sim *simcost.Simulator) error {
	sender, err := b.NewProducer(broker.ProducerConfig{
		Acks:      r.cfg.SenderAcks,
		BatchSize: r.cfg.SenderBatch,
	})
	if err != nil {
		return err
	}
	var pace *simcost.Meter
	var perRecord time.Duration
	if r.cfg.Ingest == IngestStream && r.cfg.RateRecordsPerSec > 0 {
		pace = sim.NewMeter()
		perRecord = time.Second / time.Duration(r.cfg.RateRecordsPerSec)
	}
	for _, rec := range r.dataset {
		if err := ctx.Err(); err != nil {
			return err
		}
		if pace != nil {
			pace.Charge(perRecord)
		}
		if err := sender.Send(inputTopic, nil, rec); err != nil {
			return err
		}
	}
	if pace != nil {
		pace.Flush()
	}
	return sender.Close()
}

func (r *Runner) execute(ctx context.Context, setup Setup, w queries.Workload, sim *simcost.Simulator, col *metrics.Collector, tr *obs.Tracer) error {
	if setup.API == APINative {
		exec, ok := nativeExecutors[setup.System]
		if !ok {
			return fmt.Errorf("harness: unknown system %d", setup.System)
		}
		return exec(r, setup, w, sim, col, tr)
	}
	return r.executeBeam(ctx, setup, w, sim, col, tr)
}

// executeBeam runs the Beam variant of a setup through the runner
// registry: one code path for every engine, selected by name.
func (r *Runner) executeBeam(ctx context.Context, setup Setup, w queries.Workload, sim *simcost.Simulator, col *metrics.Collector, tr *obs.Tracer) error {
	name := setup.System.RunnerName()
	if name == "" {
		return fmt.Errorf("harness: unknown system %d", setup.System)
	}
	p, err := queries.BeamPipeline(w, setup.Query)
	if err != nil {
		return err
	}
	runner, err := beam.GetRunner(name)
	if err != nil {
		return err
	}
	_, err = runner.Run(ctx, p, beam.Options{
		Parallelism:   setup.Parallelism,
		Fusion:        r.cfg.Fusion,
		Costs:         &r.costs,
		Sim:           sim,
		Metrics:       col,
		Trace:         tr,
		TargetRecords: int64(len(r.dataset)),
	})
	return err
}

// RunCell runs all repetitions of one setup.
func (r *Runner) RunCell(setup Setup) ([]RunResult, error) {
	return r.runCell(context.Background(), setup)
}

// runCell runs one setup's repetitions, checking for cancellation
// between runs so a worker drains quickly without discarding the runs it
// already completed. Identity, Projection and Grep contractually map
// each input to an exact output set, so repeated runs must produce
// identical output counts; a disagreement means an engine dropped or
// duplicated records and is reported as an error rather than silently
// averaged away. Sample is exempt because its Table II contract is only
// "about 40% of the tuples": the shared seeded hash that makes our four
// implementations agree is an implementation detail, and an engine
// sampling another way would still be correct while varying per run.
// (With telemetry on, such an engine is still caught — the latency
// pairing in observeLatencies requires the deterministic subset.)
//
// With a profile directory configured, each cell is captured as one
// pprof profile spanning all of its runs: cpu_<cell>.pprof while the
// runs execute, mem_<cell>.pprof (post-GC heap) after they finish.
func (r *Runner) runCell(ctx context.Context, setup Setup) ([]RunResult, error) {
	if r.cfg.CPUProfileDir == "" && r.cfg.MemProfileDir == "" {
		return r.runCellRuns(ctx, setup)
	}
	var stopCPU func() error
	if r.cfg.CPUProfileDir != "" {
		var err error
		stopCPU, err = obs.CaptureCPU(r.cfg.CPUProfileDir, cellKey(setup))
		if err != nil {
			return nil, fmt.Errorf("harness: cpu profile: %w", err)
		}
	}
	out, runErr := r.runCellRuns(ctx, setup)
	if stopCPU != nil {
		if err := stopCPU(); err != nil && runErr == nil {
			runErr = fmt.Errorf("harness: cpu profile: %w", err)
		}
	}
	if r.cfg.MemProfileDir != "" {
		if err := obs.CaptureHeap(r.cfg.MemProfileDir, cellKey(setup)); err != nil && runErr == nil {
			runErr = fmt.Errorf("harness: heap profile: %w", err)
		}
	}
	return out, runErr
}

func (r *Runner) runCellRuns(ctx context.Context, setup Setup) ([]RunResult, error) {
	lc := r.cfg.Plane.Cell(cellKey(setup))
	// However the cell ends, its latency summary is final now: fix it
	// and release the per-record samples behind it.
	defer func() {
		col, _ := r.metrics.Get(cellKey(setup))
		col.Seal()
	}()
	out := make([]RunResult, 0, r.cfg.Runs)
	for run := range r.cfg.Runs {
		if err := ctx.Err(); err != nil {
			lc.Finish(obs.CellFailed, err.Error())
			return out, err
		}
		res, err := r.runSingle(ctx, setup, run)
		if err != nil {
			// A capability gap — the runner rejected the pipeline with
			// the shared beam.ErrUnsupported sentinel — is a property of
			// the setup, not a failure of the benchmark: record the cell
			// as skipped-with-reason and keep the matrix running.
			// Translation is deterministic, so only run 0 can see it.
			if run == 0 && errors.Is(err, beam.ErrUnsupported) {
				r.progress(fmt.Sprintf("%-22s skipped (unsupported)", setup.Label()+" "+setup.Query.String()))
				lc.Finish(obs.CellSkipped, err.Error())
				return []RunResult{{Setup: setup, Skipped: true, SkipReason: err.Error()}}, nil
			}
			lc.Finish(obs.CellFailed, err.Error())
			return out, err
		}
		if len(out) > 0 && res.OutputRecords != out[0].OutputRecords && setup.Query != queries.Sample {
			out = append(out, res)
			err := fmt.Errorf(
				"harness: nondeterministic output for %s %s: run %d produced %d records, run 0 produced %d",
				setup.Label(), setup.Query, run, res.OutputRecords, out[0].OutputRecords)
			lc.Finish(obs.CellFailed, err.Error())
			return out, err
		}
		out = append(out, res)
	}
	r.progress(fmt.Sprintf("%-22s %d runs done", setup.Label()+" "+setup.Query.String(), r.cfg.Runs))
	lc.Finish(obs.CellDone, "")
	return out, nil
}

// progress delivers one progress line, serializing concurrent callers so
// the Progress callback never races with itself.
func (r *Runner) progress(msg string) {
	if r.cfg.Progress == nil {
		return
	}
	r.progressMu.Lock()
	defer r.progressMu.Unlock()
	r.cfg.Progress(msg)
}

// RunQuery runs the full twelve-setup matrix of one query (three
// systems x two APIs x the configured parallelisms).
func (r *Runner) RunQuery(q queries.Query) ([]RunResult, error) {
	var out []RunResult
	for _, sys := range Systems() {
		for _, api := range APIs() {
			for _, p := range r.cfg.Parallelisms {
				cell, err := r.RunCell(Setup{System: sys, API: api, Query: q, Parallelism: p})
				out = append(out, cell...)
				if err != nil {
					return out, err
				}
			}
		}
	}
	return out, nil
}

// expectCells pre-registers the given setups on the live plane in
// order, so the dashboard shows the whole matrix as pending before the
// first cell starts. A nil plane makes this a no-op.
func (r *Runner) expectCells(setups []Setup) {
	if r.cfg.Plane == nil {
		return
	}
	keys := make([]string, len(setups))
	for i, s := range setups {
		keys[i] = cellKey(s)
	}
	r.cfg.Plane.Expect(keys)
}

// RunAll runs every query's matrix and aggregates the report, fanning
// cells out over Config.Workers goroutines when more than one is
// configured. On error it returns the report built from every completed
// run alongside the error, so partial results are never lost.
func (r *Runner) RunAll() (*Report, error) {
	if r.cfg.Workers > 1 {
		return r.RunAllParallel(context.Background(), r.cfg.Workers)
	}
	r.expectCells(r.MatrixSetups(queries.All()))
	var all []RunResult
	var runErr error
	for _, q := range queries.All() {
		res, err := r.RunQuery(q)
		all = append(all, res...)
		if err != nil {
			runErr = err
			break
		}
	}
	rep, err := BuildReport(r.cfg, all)
	if err != nil {
		return nil, err
	}
	rep.AttachMetrics(r.metrics)
	return rep, runErr
}

// ErrMissingCell is returned when a report lacks data for a setup.
var ErrMissingCell = errors.New("harness: no results for setup")
