// Package obs is the run-observation layer: span tracing, lag gauges,
// and profiling hooks that let a benchmark cell be inspected *while it
// runs* rather than only through the aggregate report.
//
// # Contract
//
// Everything in this package follows the nil-safe collector pattern
// established by internal/metrics: a nil *Tracer, nil *Gauge, nil
// *Monitor, or zero Span is a valid, fully disabled instance — every
// method is a no-op and the record hot path performs zero allocations.
// Callers therefore thread a single *Tracer through engine configs
// unconditionally and never branch on "is tracing on".
//
// Timestamps are monotonic. A Tracer reads the wall clock exactly once,
// at construction, to anchor the trace; every event time after that is
// a time.Since against that anchor, so spans are immune to wall-clock
// steps mid-run. Code in this package that needs another wall-clock
// read must carry a `beamvet:allow determinism` directive — the
// package is inside the determinism analyzer's scope on purpose.
//
// # Spans and counters
//
// Span events land in a fixed-capacity ring guarded by a single short
// mutex hold. When the ring is full the oldest events are overwritten
// and Dropped reports how many; recording never blocks and never
// allocates after the ring is built. The trace exports as Chrome
// trace-event JSON (WriteChromeTrace) and opens directly in Perfetto
// or chrome://tracing. Gauges hold the latest value of a sampled
// quantity (watermarks) in an atomic.
//
// A run's live state is described once, by CellSources, and read two
// ways: the Monitor is the periodic read (a ticker goroutine plus one
// final read on Stop) that turns it into counter tracks and per-run
// max/mean summaries for the report; the Plane is the on-demand read
// of the same sources per scrape. Both go through one unexported
// reader, so consumer lag, stage rates and watermark lag are derived
// once.
//
// # Watermark-lag semantics
//
// Event times in this benchmark are synthetic (the AOL QueryTime
// column), so "processing time minus watermark" is meaningless.
// Watermark lag is instead frontier-relative: at each sample the
// monitor takes the most advanced live watermark across the run's
// operators as the frontier and reports each operator's distance
// behind it, in seconds. An operator at watermark.EndOfTime has
// drained and reports zero lag. WatermarkLags is the one place the
// frontier is computed.
//
// # Snapshots and exposition
//
// The Plane is the pull-based live-telemetry registry: the harness
// registers every matrix cell on it (pending -> running -> done /
// skipped / failed) and attaches each run's live sources (the metrics
// collector, the run-scoped tracer's gauge registry, and two broker
// accessors for consumer lag and topic end offsets). Nothing is
// sampled until someone asks: Snapshot() walks the cells and reads
// each source at call time, so a plane attached to a run that nobody
// scrapes costs exactly the field assignments in StartRun/EndRun.
// Consistency is per-cell — each cell's fields are read under its own
// short mutex hold, never under a global lock, and none of the sources
// sit on a per-record path (the collector is internally locked, gauges
// are atomics, broker accessors take broker-internal locks).
//
// Serve exposes the plane over HTTP: /metrics in OpenMetrics text
// exposition (hand-rolled writer + strict parser in openmetrics.go, no
// dependencies), /snapshot as versioned JSON (SnapshotSchemaVersion),
// and /debug/pprof on an explicitly built mux. The same nil-safe
// contract applies end to end: a nil *Plane is a valid disabled plane
// — Cell returns a nil *LiveCell whose lifecycle methods no-op, and a
// nil plane still serves the empty snapshot — so the harness threads
// Config.Plane unconditionally, exactly like Config.Trace.
package obs
