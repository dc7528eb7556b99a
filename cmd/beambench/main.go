// Command beambench reproduces the evaluation of Hesse et al. (ICDCS
// 2019): it runs the StreamBench queries — the paper's four stateless
// ones plus three stateful event-time workloads (the tumbling
// WindowedCount, the overlapping-window SlidingSum, and the two-input
// windowed Join) — on the three simulated engines, with native APIs and
// through the Beam abstraction layer, and prints the paper's figures
// and tables.
//
// Usage examples:
//
//	beambench -figure 11                 # slowdown factors (Figure 11)
//	beambench -figure 6 -runs 10         # identity execution times
//	beambench -table 3                   # per-run identity times on Flink
//	beambench -all -json report.json     # everything, plus raw JSON
//	beambench -print queries             # Table II (static)
//	beambench -records 1000001 -runs 10  # paper-scale (slow)
//	beambench -all -workers 1            # strictly sequential matrix
//	beambench -figure 11 -fusion on      # force ParDo fusion on every runner
//	beambench -figure 6 -latency         # event-time latency p50/p90/p99 + throughput
//	beambench -figure 6 -ingest stream -rate 5000   # sustained-load scenario
//	beambench -query windowedcount -json out.json   # one query's 12 cells, JSON only
//	beambench -query windowedcount -ingest stream -trace trace.json  # Chrome trace (Perfetto)
//	beambench -trace-summary trace.json  # top stages by wall time + peak lag, offline
//	beambench -figure 6 -workers 1 -cpuprofile prof/ -memprofile prof/  # pprof per cell
//	beambench -all -serve :9090          # live /snapshot, /debug/pprof during the run
//	beambench -watch localhost:9090      # in-flight dashboard against a -serve instance
//
// -serve starts the live telemetry plane for the duration of the run:
// /snapshot returns the versioned JSON view the -watch dashboard
// renders, and /debug/pprof exposes the standard profiles. The plane is
// pull-based — nothing is sampled unless something scrapes — so it adds
// no goroutines and no per-record work to the benchmark itself.
//
// -trace records run-level spans (sender, cluster launch, per-stage
// execution, result calculation), per-partition consumer-lag and
// per-operator watermark-lag counter tracks, and pane-firing instants
// into a bounded ring, exported as Chrome trace-event JSON; see the
// README's Observability section and internal/obs.
//
// A matrix cell whose runner rejects the pipeline (beam.ErrUnsupported)
// is recorded as a skipped cell with its reason — in figures and in the
// JSON — instead of aborting the run.
//
// Engines run through the beam runner registry; -fusion selects the
// translation mode for the Beam cells (default keeps each runner
// paper-faithful: fused on Apex, per-primitive on Flink and Spark).
//
// -ingest selects when the data sender runs relative to query
// execution. The default, preload, fills the input topic before the
// engine cluster launches (the original reproduction's setup), so
// execution time measures drain throughput and event-time latency is
// dominated by queueing from time zero. With -ingest stream the sender
// runs concurrently with the engine at the -rate offered load
// (records/second on the simulated clock; 0 streams unthrottled), so
// the latency numbers measure processing delay under sustained load and
// execution time stretches to at least the sending window. Outputs are
// byte-identical across modes.
//
// -latency turns on the telemetry subsystem (internal/metrics): every
// cell additionally reports per-record event-time latency quantiles
// (output-topic append time minus input-topic append time, from broker
// timestamps alone) and per-stage throughput from the engine operators.
// Both blocks are included in -json output.
//
// Every run builds its own broker and engine cluster, so the matrix
// cells are independent; -workers (default: one per CPU) fans them out
// across goroutines without changing the report's row ordering. The
// execution times themselves are measured wall clock, so concurrent
// cells contend for CPU; use -workers 1 for measurement-grade numbers.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"beambench/internal/beam"
	"beambench/internal/harness"
	"beambench/internal/obs"
	"beambench/internal/queries"
)

// _traceRingCapacity bounds -trace memory: the newest ~256k events are
// kept (a full default matrix fits comfortably); on overflow the export
// carries an obs/dropped-events counter instead of growing unbounded.
const _traceRingCapacity = 1 << 18

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "beambench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("beambench", flag.ContinueOnError)
	var (
		records  = fs.Int("records", 50_000, "workload size (paper: 1000001)")
		runs     = fs.Int("runs", 5, "runs per setup (paper: 10)")
		figure   = fs.Int("figure", 0, "print one figure (6-11)")
		table    = fs.Int("table", 0, "print one table (1-3)")
		all      = fs.Bool("all", false, "run everything and print all figures and tables")
		queryArg = fs.String("query", "", "limit to one query: "+strings.Join(queries.Names(), "|"))
		jsonPath = fs.String("json", "", "write the raw report as JSON to this file")
		seed     = fs.Uint64("seed", 42, "dataset seed")
		fusion   = fs.String("fusion", "default", "ParDo fusion mode for Beam cells: default|on|off")
		ingest   = fs.String("ingest", "preload", "ingestion mode: preload (fill the topic, then launch) or stream (sender runs concurrently)")
		rate     = fs.Int("rate", 0, "streaming sender rate in records/second (0 = unthrottled; -ingest stream only)")
		latency  = fs.Bool("latency", false, "collect and print per-record event-time latency (p50/p90/p99) and per-stage throughput")
		noNoise  = fs.Bool("no-noise", false, "disable the run-to-run noise model")
		workers  = fs.Int("workers", harness.DefaultWorkers(), "concurrent benchmark cells (1 = sequential)")
		quiet    = fs.Bool("quiet", false, "suppress progress output")
		printArg = fs.String("print", "", "print static info: systems|queries")

		tracePath    = fs.String("trace", "", "write a Chrome trace-event JSON of the matrix to this file (open in Perfetto / chrome://tracing)")
		traceSummary = fs.String("trace-summary", "", "summarize an existing trace file (top stages by wall time, peak gauge values) and exit")
		gaugeEvery   = fs.Duration("gauge-interval", 0, "lag-gauge sampling cadence for -trace (default 50ms)")
		cpuProfile   = fs.String("cpuprofile", "", "write one pprof CPU profile per matrix cell into this directory (requires -workers 1)")
		memProfile   = fs.String("memprofile", "", "write one pprof heap profile per matrix cell into this directory")

		serveAddr     = fs.String("serve", "", "serve live telemetry on this address during the run: /snapshot (JSON), /debug/pprof (e.g. :9090)")
		watchURL      = fs.String("watch", "", "watch a running beambench -serve instance at this URL (or host:port) and exit when its matrix completes")
		watchInterval = fs.Duration("watch-interval", 500*time.Millisecond, "refresh cadence for -watch")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *printArg != "" {
		switch *printArg {
		case "systems":
			fmt.Fprint(out, harness.FormatTableI())
			return nil
		case "queries":
			r, err := harness.New(harness.Config{Records: *records, DatasetSeed: *seed})
			if err != nil {
				return err
			}
			fmt.Fprint(out, harness.FormatTableII(r.DatasetSize(), r.GrepHits()))
			return nil
		default:
			return fmt.Errorf("unknown -print target %q", *printArg)
		}
	}
	if *watchURL != "" {
		return runWatch(*watchURL, *watchInterval, out)
	}
	if *traceSummary != "" {
		f, err := os.Open(*traceSummary)
		if err != nil {
			return err
		}
		defer f.Close()
		sum, err := obs.Summarize(f)
		if err != nil {
			return err
		}
		fmt.Fprint(out, sum.Format(15))
		return nil
	}

	// A query restricted to JSON or trace output needs no figure:
	// WindowedCount has no paper figure, so `-query windowedcount -json
	// out.json` (or `-trace out.json`) is the way to benchmark it
	// standalone (the CI smoke step does).
	jsonOnly := *figure == 0 && *table == 0 && !*all && *queryArg != "" && (*jsonPath != "" || *tracePath != "")
	if *figure == 0 && *table == 0 && !*all && !jsonOnly {
		return fmt.Errorf("nothing to do: pass -figure N, -table N, -all, -print, or -query with -json/-trace")
	}
	if *table == 1 {
		fmt.Fprint(out, harness.FormatTableI())
		return nil
	}

	if *workers < 1 {
		return fmt.Errorf("-workers must be at least 1, got %d", *workers)
	}
	fusionMode, err := beam.ParseFusionMode(*fusion)
	if err != nil {
		return err
	}
	ingestMode, err := harness.ParseIngestMode(*ingest)
	if err != nil {
		return err
	}
	if *rate != 0 && ingestMode != harness.IngestStream {
		return fmt.Errorf("-rate %d only applies with -ingest stream", *rate)
	}
	if *cpuProfile != "" && *workers > 1 {
		return fmt.Errorf("-cpuprofile requires -workers 1 (CPU profiling is process-global)")
	}
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer(_traceRingCapacity)
	}
	var plane *obs.Plane
	if *serveAddr != "" {
		plane = obs.NewPlane(*records, *runs)
	}
	cfg := harness.Config{
		Records:           *records,
		Runs:              *runs,
		DatasetSeed:       *seed,
		DisableNoise:      *noNoise,
		Fusion:            fusionMode,
		Ingest:            ingestMode,
		RateRecordsPerSec: *rate,
		Workers:           *workers,
		CollectMetrics:    *latency,
		Plane:             plane,
		Trace:             tracer,
		GaugeInterval:     *gaugeEvery,
		CPUProfileDir:     *cpuProfile,
		MemProfileDir:     *memProfile,
	}
	if !*quiet {
		cfg.Progress = func(msg string) { fmt.Fprintln(os.Stderr, "  "+msg) }
	}
	r, err := harness.New(cfg)
	if err != nil {
		return err
	}

	if *table == 2 {
		fmt.Fprint(out, harness.FormatTableII(r.DatasetSize(), r.GrepHits()))
		return nil
	}

	qs, err := selectQueries(*figure, *table, *all, *queryArg)
	if err != nil {
		return err
	}
	if plane != nil {
		srv, err := plane.Serve(*serveAddr)
		if err != nil {
			return fmt.Errorf("-serve %s: %w", *serveAddr, err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "  serving live telemetry on %s (/snapshot /debug/pprof)\n", srv.URL())
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "benchmarking %d records x %d runs x %d queries x 12 setups (%d workers, ingest=%s)\n",
			r.DatasetSize(), *runs, len(qs), *workers, ingestMode)
	}
	rep, runErr := r.RunMatrix(context.Background(), qs, *workers)

	// The trace is written even for a partial matrix: the spans and lag
	// tracks up to the failure are exactly what a post-mortem wants.
	if tracer != nil {
		if err := tracer.WriteChromeTraceFile(*tracePath); err != nil {
			return err
		}
		if !*quiet {
			if d := tracer.Dropped(); d > 0 {
				fmt.Fprintf(os.Stderr, "  trace written to %s (ring overflowed: %d oldest events dropped; see obs/dropped-events)\n", *tracePath, d)
			} else {
				fmt.Fprintf(os.Stderr, "  trace written to %s\n", *tracePath)
			}
		}
	}
	if rep == nil {
		return runErr
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rep.WriteJSON(f); err != nil {
			return err
		}
	}
	if runErr != nil {
		// The completed cells were still written to -json (if set);
		// figures need the full matrix, so stop here.
		if *jsonPath != "" && !*quiet {
			fmt.Fprintf(os.Stderr, "  partial report (%d cells) written to %s\n", len(rep.Cells), *jsonPath)
		}
		return runErr
	}

	fmt.Fprintf(out, "Host: %s\n\n", rep.Host)
	switch {
	case *all:
		for n := 6; n <= 11; n++ {
			text, err := rep.FormatFigure(n)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, text)
		}
		t3, err := rep.FormatTableIII()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, harness.FormatTableI())
		fmt.Fprintln(out, harness.FormatTableII(r.DatasetSize(), r.GrepHits()))
		fmt.Fprintln(out, t3)
	case *figure != 0:
		text, err := rep.FormatFigure(*figure)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, text)
	case *table == 3:
		t3, err := rep.FormatTableIII()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, t3)
	}
	if *latency {
		text, err := rep.FormatLatency()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, text)
	}
	return nil
}

// selectQueries decides which queries must run for the requested output.
func selectQueries(figure, table int, all bool, queryArg string) ([]queries.Query, error) {
	if queryArg != "" {
		q, err := parseQuery(queryArg)
		if err != nil {
			return nil, err
		}
		return []queries.Query{q}, nil
	}
	switch {
	case all || figure == 10 || figure == 11:
		return queries.All(), nil
	case figure >= 6 && figure <= 9:
		byFig := map[int]queries.Query{
			6: queries.Identity, 7: queries.Sample, 8: queries.Projection, 9: queries.Grep,
		}
		return []queries.Query{byFig[figure]}, nil
	case table == 3:
		return []queries.Query{queries.Identity}, nil
	default:
		return nil, fmt.Errorf("unsupported figure/table selection")
	}
}

func parseQuery(s string) (queries.Query, error) {
	return queries.ParseQuery(s)
}
