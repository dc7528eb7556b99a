package main

import (
	"fmt"

	"beambench/internal/harness"
	"beambench/internal/queries"
	"beambench/internal/simcost"
)

// sampleSeed is the harness's default Sample-query seed, pinned so the
// driver's reference index samples exactly like the cells do.
const sampleSeed = 7

// querySpec is one query of a workload at its input size. A cell is one
// system x API combination running it: 3 systems x 2 APIs per query,
// always at parallelism 1 and one after another — nproc is 2 and simcost
// busy-waits per operator goroutine, so parallelism 2 or concurrent
// cells would measure the Go scheduler.
type querySpec struct {
	Query   queries.Query
	Records int
}

// workload is one set of inputs the benchmark runs. Record counts are
// fixed per workload; only the number of reps follows -seconds.
type workload struct {
	Name   string
	Why    string
	Costs  simcost.Costs
	Ingest harness.IngestMode
	Rate   int // records/s of the open-loop sender; stream ingest only
	// Twin makes every timed rep run each cell a second time at zero
	// cost. The twin's times are the compute part of the cell's times,
	// which the report brings to reference speed (see machineSpeed).
	Twin    bool
	Queries []querySpec
}

// streamRate is 5000 records/s: at most 40% of the slowest cell's drain
// rate (Apex-Beam Identity, ~77 us/record), so backlog must not grow and
// event-time latency measures processing delay, not queueing.
const streamRate = 5000

// workloads returns the benchmark's four workloads. Grep is in none of
// them: its output span lies between ~0.3% sparse matches and is
// quantised by producer linger and window boundaries (see README).
func workloads() []workload {
	return []workload{
		{
			Name:  "calibrated",
			Why:   "The paper's own measurement: default simcost charges dominate the Beam cells, so a change to the clock or the charge pattern shows here and a record-path change barely does.",
			Costs: simcost.DefaultCosts(),
			Twin:  true,
			Queries: []querySpec{
				{queries.Identity, 10_000}, {queries.Sample, 10_000}, {queries.WindowedCount, 10_000},
			},
		},
		{
			Name:  "stateless_zero",
			Why:   "Zero costs bypass simcost: time is real Go compute on the stateless record path (broker fetch/produce, beam coders, engine hand-off, sink); pane state does nothing here.",
			Costs: simcost.ZeroCosts(),
			Queries: []querySpec{
				{queries.Identity, 50_000}, {queries.Sample, 50_000},
			},
		},
		{
			Name:  "stateful_zero",
			Why:   "Zero costs on the keyed path (watermark.WindowState, graphx.GBKState, queries.JoinState, keyhash), with the Flink FireReady pathology; a stateless-path change predicts no move here.",
			Costs: simcost.ZeroCosts(),
			Queries: []querySpec{
				// Join is super-linear on Flink today, hence its smaller input.
				{queries.WindowedCount, 20_000}, {queries.SlidingSum, 20_000}, {queries.Join, 5_000},
			},
		},
		{
			Name:   "stream_paced",
			Why:    "The paper's Figure-5 arrangement: an open-loop sender paced at 5000 records/s writes while the sources read, so event-time latency is processing delay under load, not drain time.",
			Costs:  simcost.DefaultCosts(),
			Ingest: harness.IngestStream,
			Rate:   streamRate,
			Queries: []querySpec{
				{queries.Identity, 2_000}, {queries.WindowedCount, 2_000},
			},
		},
	}
}

// computeBound reports whether the workload's times are all Go compute:
// at zero cost simcost charges nothing, so every time scales with the
// machine's speed and is reported at reference speed (see machineSpeed).
// With calibrated costs a time is simcost's real-time charges, which do
// not scale, plus compute, which a Twin workload measures; stream_paced
// is set by the sender's pacing and is reported as measured.
func (w workload) computeBound() bool { return w.Costs == simcost.ZeroCosts() }

// atZeroCost returns the workload of w's twin cells.
func (w workload) atZeroCost() workload {
	w.Costs = simcost.ZeroCosts()
	return w
}

// workloadByName finds one workload.
func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// capRecords returns w with every input size capped at n, for the smoke
// test; the gated runs never call it.
func (w workload) capRecords(n int) workload {
	qs := make([]querySpec, len(w.Queries))
	for i, q := range w.Queries {
		q.Records = min(q.Records, n)
		qs[i] = q
	}
	w.Queries = qs
	return w
}

// recordCounts lists the workload's distinct input sizes in first-use
// order; every rep builds one fresh harness.Runner per size.
func (w workload) recordCounts() []int {
	var out []int
	seen := map[int]bool{}
	for _, q := range w.Queries {
		if !seen[q.Records] {
			seen[q.Records] = true
			out = append(out, q.Records)
		}
	}
	return out
}

// metricDef names one metric with its unit; Bound is the share of the
// parent's median by which an end-to-end metric may worsen, Time marks a
// duration (as opposed to a count).
type metricDef struct {
	Name  string
	Unit  string
	Bound float64
	Time  bool
}

// endToEndDefs lists the end-to-end metrics, all lower-is-better. Every
// later performance issue names its claim with these names.
func endToEndDefs() []metricDef {
	return []metricDef{
		{"setup_s", "s", 0.25, true},
		{"native_ns_per_record", "ns", 0.25, true},
		{"beam_ns_per_record", "ns", 0.25, true},
		{"wall_ns_per_record", "ns", 0.25, true},
		{"latency_p50_ms", "ms", 0.25, true},
		{"latency_p99_ms", "ms", 0.25, true},
		{"cpu_ns_per_record", "ns", 0.25, true},
		{"allocs_per_record", "count", 0.02, false},
		{"alloc_bytes_per_record", "B", 0.05, false},
	}
}
