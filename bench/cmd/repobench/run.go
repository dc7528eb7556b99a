package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"syscall"
	"time"

	"beambench/internal/aol"
	"beambench/internal/harness"
	"beambench/internal/obs"
	"beambench/internal/queries"
)

// cellKey is the harness's collector key for a setup.
func cellKey(s harness.Setup) string { return s.Label() + " " + s.Query.String() }

// config builds the harness configuration of one runner: parallelism 1,
// no noise, telemetry on (the collector pairs every output with an
// expected payload, which is the per-record correctness check).
func (w workload) config(records int, seed uint64, tr *obs.Tracer) harness.Config {
	costs := w.Costs
	return harness.Config{
		Records:           records,
		Runs:              1,
		Parallelisms:      []int{1},
		DatasetSeed:       seed,
		SampleSeed:        sampleSeed,
		Costs:             &costs,
		DisableNoise:      true,
		CollectMetrics:    true,
		Ingest:            w.Ingest,
		RateRecordsPerSec: w.Rate,
		Trace:             tr,
		GaugeInterval:     10 * time.Millisecond,
	}
}

// reference holds what a correct cell must output, computed by the
// driver from its own copy of the generated dataset.
type reference struct {
	expected map[querySpec]int64
	// hash fingerprints the dataset per input size.
	hash map[int]uint64
}

// newReference regenerates the workload's datasets and counts each
// query's expected outputs.
func newReference(w workload, seed uint64) (*reference, error) {
	// A one-record runner is the cheapest way to the validated
	// configuration, which carries the harness's seed defaults.
	r, err := harness.New(w.config(1, seed, nil))
	if err != nil {
		return nil, err
	}
	cfg := r.Config()
	ref := &reference{expected: map[querySpec]int64{}, hash: map[int]uint64{}}
	for _, n := range w.recordCounts() {
		gen, err := aol.NewGenerator(aol.Config{Records: n, Seed: cfg.DatasetSeed, GrepHits: -1})
		if err != nil {
			return nil, err
		}
		data := gen.All()
		h := fnv.New64a()
		for _, rec := range data {
			h.Write(rec)
			h.Write([]byte{'\n'})
		}
		ref.hash[n] = h.Sum64()
		for _, q := range w.Queries {
			if q.Records != n {
				continue
			}
			ix, err := queries.NewSurvivorIndex(q.Query, cfg.SampleSeed)
			if err != nil {
				return nil, err
			}
			for _, rec := range data {
				ix.AddInput(rec)
			}
			ref.expected[q] = int64(ix.Expected())
		}
	}
	return ref, nil
}

// cellRun is one cell of one rep.
type cellRun struct {
	Key     string
	System  string
	API     harness.API
	Query   string
	Records int

	ExecNS float64
	WallNS float64
	// P50Sec and P99Sec come from the cell's metrics.Collector sketch
	// over LatencyObs paired records.
	P50Sec     float64
	P99Sec     float64
	LatencyObs int64

	Output   int64
	Expected int64
	Skipped  bool
	Err      string

	// Process-wide deltas across the cell.
	CPUNS      float64
	Mallocs    float64
	AllocBytes float64

	// Speed is the machine speed ratio around the run (machineSpeed).
	Speed float64
}

// failure says why the cell counts against failed_share, or "" if it
// passed: it returned an error, was skipped, produced another output
// count than the reference, or has no measurable time.
func (c cellRun) failure() string {
	switch {
	case c.Err != "":
		return "error: " + c.Err
	case c.Skipped:
		return "skipped"
	case c.Output != c.Expected:
		return fmt.Sprintf("output %d records, reference %d", c.Output, c.Expected)
	case c.ExecNS <= 0 || c.WallNS <= 0:
		return "zero execution time"
	case c.LatencyObs != c.Expected:
		return fmt.Sprintf("%d latency observations, reference %d", c.LatencyObs, c.Expected)
	}
	return ""
}

// repResult is one rep: every cell of a workload, run at least once.
type repResult struct {
	// SetupSec holds, per input size, the time each harness.New call of
	// the rep took (dataset generation, grep scan); SetupSpeed the
	// machine speed ratio around each call.
	SetupSec   map[int][]float64
	SetupSpeed []float64
	Cells      []cellRun
	// Twins holds one run of every cell at zero cost when the workload
	// asks for them (workload.Twin). They count as cells attempted and
	// must pass like any other, but enter the metrics only as the compute
	// part of their cell's times.
	Twins []cellRun
}

// failures lists the rep's failed cells as "key: reason".
func (r repResult) failures() []string {
	var out []string
	for _, c := range r.Cells {
		if f := c.failure(); f != "" {
			out = append(out, c.Key+": "+f)
		}
	}
	for _, c := range r.Twins {
		if f := c.failure(); f != "" {
			out = append(out, c.Key+" at zero cost: "+f)
		}
	}
	return out
}

// The reference kernel is a fixed burst of record-path-like work:
// allocate, fill and retain 20k small byte slices. This 2-vCPU VM has
// slow phases of minutes in which allocation-heavy Go code — dataset
// generation as much as a pipeline cell — runs 40-90% slower, while
// plain arithmetic slows by a few percent and no steal time is reported
// (neighbours on the host are the likely cause). That moves every
// compute-bound time by more than any bound the benchmark could set.
// The driver therefore runs the kernel next to everything it times and
// reports compute-bound times at reference speed: the measured time
// divided by the run's mean kernel time over refNominal. A workload with
// calibrated costs spends part of a time in simcost's real-time charges,
// which the phases leave alone: there only the compute part — the same
// time of the cell's zero-cost twin, run in the same rep — is brought to
// reference speed. refNominal is the kernel's time on the recording
// machine in its quiet state, so a ratio of 1 leaves the numbers as
// measured. Of three kernels tried
// (arithmetic, dependent loads over 32 MB, this one) only this one
// tracks the phases: over 14 runs through a phase it took the spread of
// native_ns_per_record on stateful_zero from 23% to 5%.
const (
	refSlices  = 20_000
	refNominal = 2600 * time.Microsecond
)

var refSink int

// machineSpeed runs the reference kernel and returns how much slower
// than nominal the machine is right now.
func machineSpeed() float64 {
	t0 := time.Now()
	keep := make([][]byte, 0, refSlices)
	for i := range refSlices {
		b := make([]byte, 64+(i&63))
		for k := range b {
			b[k] = byte(i + k)
		}
		keep = append(keep, b)
	}
	refSink += len(keep[len(keep)-1])
	return float64(time.Since(t0)) / float64(refNominal)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cellFn runs one cell; the gate test swaps in a fake.
var cellFn = runCell

// runCell executes one cell and gathers its numbers. The collection
// before it keeps the previous cell's garbage out of this cell's time.
func runCell(r *harness.Runner, s harness.Setup, expected int64, spans *recorder, parent int) cellRun {
	c := cellRun{
		Key: cellKey(s), System: s.System.String(), API: s.API, Query: s.Query.String(),
		Records: r.DatasetSize(), Expected: expected,
	}
	speed := machineSpeed()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	sp := spans.begin("RunSingle", "driver", parent)
	res, err := r.RunSingle(s, 0)
	spans.end(sp)
	spans.bindCell(c.Key, sp)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)
	c.Speed = (speed + machineSpeed()) / 2
	if err != nil {
		c.Err = err.Error()
		return c
	}
	c.ExecNS = float64(res.ExecutionTime.Nanoseconds())
	c.WallNS = float64(res.WallTime.Nanoseconds())
	c.Output = res.OutputRecords
	c.Skipped = res.Skipped
	c.CPUNS = float64(cpu1 - cpu0)
	c.Mallocs = float64(m1.Mallocs - m0.Mallocs)
	c.AllocBytes = float64(m1.TotalAlloc - m0.TotalAlloc)
	if col, ok := r.Metrics().Get(c.Key); ok {
		ls := col.LatencySummary()
		c.P50Sec, c.P99Sec, c.LatencyObs = ls.P50, ls.P99, ls.Count
	}
	return c
}

// cellSlice is the time every cell gets in a timed rep: a cell runs
// again until its runs in this rep have used the slice. Native cells
// last 10-50 ms and swing 25% from run to run, Beam cells on Apex last
// most of a second and swing 5%; with one run each the cheap cells
// carry the noise of a geometric mean that weighs all cells equally.
const cellSlice = 150 * time.Millisecond

// setupRepeats is how often the first pass of a timed rep sets up.
const setupRepeats = 5

// cellSpec is one cell of a workload.
type cellSpec struct {
	querySpec
	Setup harness.Setup
}

// cells lists the workload's cells over inputs of n records in the
// harness's matrix order: query, then system, then API.
func (w workload) cells(n int) []cellSpec {
	var out []cellSpec
	for _, q := range w.Queries {
		if q.Records != n {
			continue
		}
		for _, sys := range harness.Systems() {
			for _, api := range harness.APIs() {
				out = append(out, cellSpec{q, harness.Setup{System: sys, API: api, Query: q.Query, Parallelism: 1}})
			}
		}
	}
	return out
}

// runRep runs every cell of the workload: once when slice is 0,
// otherwise in passes until each cell has used its slice. Every pass
// builds fresh runners, because a runner's collector would merge the
// latencies of two runs of one cell. A Twin workload runs every cell once
// more in the first pass, on a runner at zero cost. tr is nil except in
// the traced rep; spans records the driver's own spans under parent (a
// nil recorder records nothing).
func (w workload) runRep(seed uint64, slice time.Duration, tr *obs.Tracer, ref *reference, spans *recorder, parent int) (repResult, error) {
	rep := repResult{SetupSec: map[int][]float64{}}
	used := map[string]time.Duration{}
	for pass := 0; ; pass++ {
		ran := false
		for _, n := range w.recordCounts() {
			var todo []cellSpec
			for _, cs := range w.cells(n) {
				if pass == 0 || used[cellKey(cs.Setup)] < slice {
					todo = append(todo, cs)
				}
			}
			if len(todo) == 0 {
				continue
			}
			ran = true
			// The first pass of a timed rep sets up setupRepeats times and
			// keeps the last runner: set-up lasts milliseconds, and
			// setup_s is a median over the run's set-ups.
			setups := 1
			if pass == 0 && slice > 0 {
				setups = setupRepeats
			}
			var r *harness.Runner
			for range setups {
				speed := machineSpeed()
				sp := spans.begin("harness.New", "driver", parent)
				t0 := time.Now()
				var err error
				r, err = harness.New(w.config(n, seed, tr))
				rep.SetupSec[n] = append(rep.SetupSec[n], time.Since(t0).Seconds())
				spans.end(sp)
				rep.SetupSpeed = append(rep.SetupSpeed, (speed+machineSpeed())/2)
				if err != nil {
					return rep, err
				}
			}
			var zero *harness.Runner
			if w.Twin && pass == 0 {
				var err error
				if zero, err = harness.New(w.atZeroCost().config(n, seed, nil)); err != nil {
					return rep, err
				}
			}
			for _, cs := range todo {
				cell := spans.begin(cellKey(cs.Setup), "driver", parent)
				c := cellFn(r, cs.Setup, ref.expected[cs.querySpec], spans, cell)
				spans.end(cell)
				used[c.Key] += time.Duration(c.WallNS)
				rep.Cells = append(rep.Cells, c)
				if c.failure() != "" {
					used[c.Key] = max(used[c.Key], slice) // failed once: do not run again
				}
				if zero != nil {
					rep.Twins = append(rep.Twins, cellFn(zero, cs.Setup, ref.expected[cs.querySpec], nil, 0))
				}
			}
		}
		if !ran {
			return rep, nil
		}
	}
}

// runTimed repeats runRep untraced until the next rep would no longer
// fit into budget, but at least minReps times.
func (w workload) runTimed(seed uint64, budget, slice time.Duration, minReps int) ([]repResult, error) {
	ref, err := newReference(w, seed)
	if err != nil {
		return nil, err
	}
	var reps []repResult
	start := time.Now()
	for {
		rep, err := w.runRep(seed, slice, nil, ref, nil, 0)
		if err != nil {
			return reps, err
		}
		reps = append(reps, rep)
		elapsed := time.Since(start)
		if len(reps) >= minReps && elapsed+elapsed/time.Duration(len(reps)) > budget {
			return reps, nil
		}
	}
}
