// Package metrics is the benchmark's streaming telemetry subsystem:
// exact event-time latency quantiles and windowed per-stage throughput
// counters, collected while runs execute and reported per benchmark
// cell.
//
// The design follows the measurement literature the harness reproduces:
// Karimov et al. ("Benchmarking Distributed Stream Data Processing
// Systems", ICDE 2018) argue that abstraction overhead surfaces in
// per-record event-time latency rather than in wall-clock means, and
// ESPBench (Hesse et al., 2021) makes latency percentiles a first-class
// benchmark output. Execution time alone — the only metric of the
// source paper — hides tail behaviour entirely.
//
// Three layers:
//
//   - Sketch keeps every latency observation of a cell and answers
//     exact nearest-rank quantiles (the definition of stats.Percentile),
//     so the p50/p90/p99 of a cell depend on its observations alone,
//     not on the order the output topic delivered them in. Runs are
//     bounded, so the samples fit: 8 bytes per paired output record,
//     held only while the cell runs.
//   - Throughput counts records per one-second window with a fixed ring
//     of atomically updated buckets, so concurrent producers pay one
//     atomic add on the hot path.
//   - Collector groups one latency sketch plus named per-stage
//     throughput counters for one benchmark cell; Registry keys
//     collectors by cell so all producers (engine subtasks, runner
//     stages, the harness result calculator) write into shared state
//     concurrently without coordination beyond stage-handle lookup.
//     When the cell ends, Collector.Seal fixes its LatencySummary and
//     drops the samples, so a finished cell keeps five numbers.
//
// Producers resolve a *Stage handle once per task and call Mark on it;
// the harness observes per-record latency into the cell's collector
// during result calculation (broker append-time differences, see
// internal/harness). Everything is optional: a nil *Collector disables
// collection with no hot-path cost beyond a nil check.
package metrics
