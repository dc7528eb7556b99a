// Package beambench is a from-scratch Go reproduction of "Quantitative
// Impact Evaluation of an Abstraction Layer for Data Stream Processing
// Systems" (Hesse et al., IEEE ICDCS 2019): a benchmark measuring what
// the Apache Beam abstraction layer costs on Apache Flink, Apache Spark
// Streaming and Apache Apex.
//
// The repository contains simulators for all three engines and their
// substrates (a Kafka-style broker, YARN), a Beam-style SDK, the
// StreamBench queries in native and Beam variants, and a harness that
// regenerates every figure and table of the paper's evaluation.
//
// # Queries
//
// The paper's four stateless queries — Identity, Sample (~40% seeded
// subset), Projection (first column) and Grep (~0.3% regex matches) —
// plus WindowedCount, the stateful workload the paper excluded:
// per-user-ID counts over 1-second event-time tumbling windows, emitted
// as "<window-start-unix>\t<user>\t<count>". Event time is the record's
// own query-time column, so the output set is deterministic and
// byte-identical (sorted) across systems, APIs, parallelism levels and
// ingestion modes.
//
// # Watermarks and stateful processing
//
// internal/watermark implements event-time progress in three pieces:
// generation (a per-partition/per-instance watermark of max event time
// seen minus a bounded out-of-orderness, monotonic), propagation (the
// minimum across an operator's inputs), and finalization (a source that
// meets the broker.EndOfInput contract jumps to EndOfTime, releasing
// every remaining window). Tumbling pane state on top fires (window,
// key) panes in a deterministic order — ascending window, keys first
// seen first — as soon as the watermark passes a window's end.
//
// What a keyed stateful operator does is written once, against the
// watermark.Operator contract (Process, OnWatermark, Flush over
// []byte): watermark.AggOperator is the windowed aggregate of the
// native WindowedCount and SlidingSum queries, queries.JoinState the
// join, graphx.GBKState the Beam runners' GroupByKey — the Spark
// runner's paper-era stateful rejection (ErrStatefulUnsupported) is
// lifted. Each engine deploys any such operator through one hook that
// adds its firing clock and nothing else: Flink tuple-at-a-time
// (DataStream.KeyedProcess behind KeyBy; between tasks records and
// watermarks travel in order in recycled 64-element network buffers,
// shipped when full, when the sender runs out of input and at end of
// input, so a hop costs its NetworkHopPerRecord charge and not a
// channel operation per record), Spark Streaming at
// micro-batch boundaries (DStream.Stateful, a keyed state path
// persisting across batches; RepartitionByKey reunites keys above
// parallelism 1), Apex at the watermark control events of its
// streaming-window protocol (apex.KeyedOp behind SetStreamKeyed keyed
// streams). Capability gaps that remain (e.g.
// non-global windowing without an element-derived event-time extractor)
// are reported by wrapping the shared beam.ErrUnsupported sentinel, and
// the harness records such cells as skipped-with-reason instead of
// aborting the matrix.
//
// # Runner API
//
// Pipelines execute through a single interface, with engines selected
// by name from a registry (internal/beam):
//
//	import (
//	    "beambench/internal/beam"
//	    _ "beambench/internal/beam/runners" // register direct, flink, spark, apex
//	)
//
//	r, _ := beam.GetRunner("flink")
//	res, err := r.Run(ctx, pipeline, beam.Options{Parallelism: 2})
//
// beam.Options carries the runner-independent knobs (parallelism, the
// cost model, the fusion mode); beam.Result reports per-collection
// outputs (direct runner), translated engine operator counts, and
// per-operator metrics. Each runner builds and tears down a fresh
// engine cluster per run, the paper's isolation discipline.
//
// # The fusion optimizer
//
// All runners translate from the execution plan produced by the shared
// optimizer (internal/beam/graphx), which lowers a validated pipeline
// into typed stages and — when fusion is on — collapses maximal ParDo
// chains into single executable stages, stopping at GroupByKey,
// Flatten, WindowInto and multi-consumer boundaries. What a stateless
// stage does to a record — entry, DoFn, exit, its charges, and one
// error policy: any failure fails the job — is graphx.Executable on all
// three engines; the runners only wire it into their engine's graph.
// beam.Options.Fusion selects the mode: FusionDefault is paper-faithful
// (Apex fuses, Flink and Spark emit one engine operator per primitive,
// Figure 13), FusionOn/FusionOff force one mode everywhere
// (BenchmarkFusionOverhead, `beambench -fusion`, `planviz -fused`).
//
// # Telemetry
//
// internal/metrics is the streaming telemetry subsystem: per-record
// event-time latency and per-stage throughput for every benchmark cell.
// The flow is broker timestamps -> collector -> report:
//
//	broker    every record carries its LogAppendTime
//	engines   operators mark per-stage throughput into the cell's
//	          metrics.Collector (threaded via beam.Options.Metrics and
//	          the engine cluster configs) while the job runs
//	harness   result calculation pairs each output record's append time
//	          with its input record's append time (the queries are
//	          deterministic, so outputs match FIFO against the surviving
//	          inputs' expected payloads — robust to parallel partitions
//	          interleaving the output topic) and feeds a CKMS
//	          biased-quantile sketch per cell
//	report    Cell.Latency (p50/p90/p99/max) and Cell.Stages, printed by
//	          `beambench -latency` and included in -json output
//
// Collection is opt-in (harness.Config.CollectMetrics) and costs under
// 5% on the identity query (BenchmarkInstrumentationOverhead).
//
// # Ingestion modes
//
// harness.Config.Ingest selects when the data sender runs relative to
// query execution. In preload mode (the default) the sender fills the
// input topic before the engine cluster launches: execution time
// measures drain throughput and event-time latency is dominated by
// queueing from time zero. In stream mode (`beambench -ingest stream
// -rate N`) the sender runs concurrently with the engine — the paper's
// Figure 5 architecture — paced at N records/second on the simulated
// clock, so the latency sketches measure processing delay under a
// controlled offered load. Every engine source terminates via a shared
// end-of-input contract (broker.EndOfInput, fed from
// queries.Workload.InputRecords / beam.Options.TargetRecords: consume
// until the topic has received its announced total) rather than
// snapshotting end offsets at startup, which is what makes the two
// modes produce identical outputs — byte-identical in order at
// parallelism 1, as an order-insensitive multiset above it (parallel
// sink tasks interleave appends into the single output partition).
//
// # Record ownership
//
// A record's bytes are copied exactly once, when broker.Producer.Send
// takes them into a log (a list of fixed-size chunks that never moves
// or clears what it holds). From then on they are immutable: fetches
// hand out views of the log, the engines' task boundaries, shuffles and
// buffer-server publishes forward the slice they were given, the beam
// coders alias their input, and nobody writes into a record. What a
// boundary costs is its simcost charge, not a copy. The rule is stated
// on broker.Record; beamvet's hotalloc check, AllocsPerRun pins at each
// boundary and the harness's input-topic canary enforce it.
//
// # Enforced invariants
//
// The cross-engine byte-identity contract is enforced at compile time
// by a repo-specific static-analysis suite, `go run ./cmd/beamvet
// ./...` (see internal/analysis): determinism in output-producing
// packages, termination contracts for runtime goroutines, and
// errors.Is-compatible sentinel wrapping. internal/goleak backs the
// goroutine invariant at runtime via TestMain in the broker, harness,
// and engine runtime packages.
//
// See README.md.
package beambench
