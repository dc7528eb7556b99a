package main

import (
	"fmt"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"beambench/internal/harness"
	"beambench/internal/obs"
)

// timedPhase runs the untraced reps of one workload and reports its
// end-to-end metrics.
func timedPhase(w workload, seed uint64, budget, slice time.Duration, minReps int) (workloadReport, error) {
	wr := workloadReport{Workload: w.Name, Seed: seed}
	reps, err := w.runTimed(seed, budget, slice, minReps)
	wr.count(reps)
	if err != nil {
		return wr, err
	}
	wr.Reps = len(reps)
	for _, rep := range reps {
		wr.CellRuns += len(rep.Cells)
		for _, c := range rep.Cells {
			wr.LatencyObservations += c.LatencyObs
		}
	}
	wr.MachineSpeed = meanSpeed(reps...)
	good := goodReps(reps)
	cells := cellTable(good)
	wr.Cells = len(cells)
	twins := map[string]*cellSamples{}
	for _, cs := range twinTable(good) {
		twins[cs.Key] = cs
	}
	for _, cs := range cells {
		if w.computeBound() {
			cs.Compute = cs
		} else {
			cs.Compute = twins[cs.Key]
		}
	}
	if wr.EndToEnd, err = endToEnd(good, cells, wr.MachineSpeed); err != nil {
		return wr, err
	}
	if wr.Series, err = cellSeriesOf(cells); err != nil {
		return wr, err
	}
	wr.Slowdowns, _, err = slowdowns(cells)
	wr.identityNS = identityNS(cells)
	return wr, err
}

// traceCapacity holds a traced rep's events without overwriting: the
// largest workload records one pane instant per output record and a few
// counter samples per 10 ms, well under 2^19 events.
const traceCapacity = 1 << 19

// heapSampler tracks the peak live heap while a rep runs, from the
// runtime's own counter (no stop-the-world, unlike ReadMemStats).
type heapSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	peak   uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				h.peak = max(h.peak, sample[0].Value.Uint64())
			}
			select {
			case <-h.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampler and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.stopCh)
	h.wg.Wait()
	return h.peak
}

// tracePhase is the separate traced run: one untraced rep as the base
// of the overhead ratio, one rep with harness.Config.Trace set, then the
// layer drivers. Nothing of it enters an end-to-end metric. It writes
// outDir/trace_<workload>.json and reports the per-layer metrics.
func tracePhase(w workload, seed uint64, outDir string) (workloadReport, error) {
	wr := workloadReport{Workload: w.Name, Seed: seed}
	ref, err := newReference(w, seed)
	if err != nil {
		return wr, err
	}
	w.Twin = false // twins serve the end-to-end metrics only
	tr := obs.NewTracer(traceCapacity)
	rec := newRecorder(tr)
	root := rec.begin(w.Name, "driver", 0)

	sp := rec.begin("rep-untraced", "driver", root)
	untraced, err := w.runRep(seed, 0, nil, ref, nil, 0)
	rec.end(sp)
	wr.count([]repResult{untraced})
	if err != nil {
		return wr, err
	}

	tracedSpan := rec.begin("rep-traced", "driver", root)
	heap := startHeapSampler()
	traced, err := w.runRep(seed, 0, tr, ref, rec, tracedSpan)
	peak := heap.stop()
	rec.end(tracedSpan)
	wr.count([]repResult{traced})
	if err != nil {
		return wr, err
	}
	if wr.Failed > 0 {
		return wr, fmt.Errorf("%d of %d cells failed", wr.Failed, wr.Attempted)
	}

	sp = rec.begin("layers", "driver", root)
	layers, err := runLayers(seed, rec, sp)
	rec.end(sp)
	if err != nil {
		return wr, err
	}
	rec.end(root)

	events := tr.Events()
	rec.adopt(events)
	computeSelf(rec.spans)

	wr.PerLayer = append(layers, harnessMetrics(rec.spans, events, traced, untraced)...)
	wr.PerLayer = append(wr.PerLayer,
		metricValue{Name: "harness.peak_heap_mb", Unit: "MB", Value: float64(peak) / 1e6},
		metricValue{Name: "obs.dropped_events", Unit: "count", Value: float64(tr.Dropped())},
		metricValue{Name: "driver.machine_speed_ratio", Unit: "ratio", Value: meanSpeed(untraced, traced)},
	)
	perQuery, perSystem, err := slowdowns(cellTable([]repResult{untraced}))
	if err != nil {
		return wr, err
	}
	wr.Slowdowns = perQuery
	wr.PerLayer = append(wr.PerLayer, perSystem...)

	tf := traceFile{
		Workload: w.Name, Seed: seed,
		TracedRepNs:       rec.spans[tracedSpan-1].Dur,
		BlockingSelfSumNs: blockingSelfSum(rec.spans, tracedSpan),
		DroppedEvents:     tr.Dropped(),
		Spans:             rec.spans,
	}
	return wr, writeJSONFile(filepath.Join(outDir, "trace_"+w.Name+".json"), tf)
}

// harnessMetrics derives the harness and engine numbers of the traced
// rep from its spans and gauge samples.
func harnessMetrics(spans []span, events []obs.Event, traced, untraced repResult) []metricValue {
	cells := map[string]cellRun{}
	var records float64
	for _, c := range traced.Cells {
		cells[c.Key] = c
		records += float64(c.Records)
	}
	sec := func(d time.Duration) float64 { return d.Seconds() }

	var ingest, resultCalc, flinkBusy, sparkBusy, apexBusy time.Duration
	var sparkBatches float64
	launch := map[string][]float64{}
	execute := map[string]time.Duration{}
	ingestEnd := map[string]time.Duration{}
	for _, s := range spans {
		c, ok := cells[s.Cell]
		if !ok {
			continue
		}
		system := strings.ToLower(c.System)
		switch {
		case s.Track == "sender" && s.Name == spanIngest:
			ingest += s.Dur
			ingestEnd[s.Cell] = s.end()
		case s.Track == "harness" && s.Name == spanResultCal:
			resultCalc += s.Dur
		case s.Track == "harness" && s.Name == spanLaunch:
			launch[system] = append(launch[system], sec(s.Dur)*1e3)
		case s.Track == "harness" && s.Name == spanExecute:
			execute[system+"."+strings.ToLower(c.API.String())] += s.Dur
		case strings.HasPrefix(s.Track, "flink/") && s.Name == "subtask":
			flinkBusy += s.Dur
		case s.Track == "spark/driver":
			sparkBusy += s.Dur
			if strings.HasPrefix(s.Name, "batch-") {
				sparkBatches++
			}
		case strings.HasPrefix(s.Track, "apex/") && s.Name == "partition":
			apexBusy += s.Dur
		}
	}

	// Input-topic consumer lag when the sender finishes: per cell the
	// first gauge sample at or after the end of its ingest span (the last
	// one if sampling stopped first), and the largest of those.
	const lagTrack = "consumer-lag/input/p0"
	lagAtEnd := map[string]float64{}
	settled := map[string]bool{}
	for _, ev := range events {
		if ev.Phase != obs.PhaseCounter {
			continue
		}
		cell, rest, ok := splitTrack(ev.Track)
		if !ok || rest != lagTrack || settled[cell] {
			continue
		}
		lagAtEnd[cell] = ev.Value
		if end, ok := ingestEnd[cell]; ok && ev.Start >= end {
			settled[cell] = true
		}
	}
	var endLag float64
	for _, v := range lagAtEnd {
		endLag = max(endLag, v)
	}

	// Both reps of the traced run execute every cell exactly once.
	wall := func(rep repResult) float64 {
		var ns float64
		for _, c := range rep.Cells {
			ns += c.WallNS
		}
		return ns / records
	}
	out := []metricValue{
		{Name: "harness.ingest_ns_per_record", Unit: "ns", Value: float64(ingest.Nanoseconds()) / records},
		{Name: "harness.result_calc_ns_per_record", Unit: "ns", Value: float64(resultCalc.Nanoseconds()) / records},
	}
	for _, sys := range harness.Systems() {
		system := strings.ToLower(sys.String())
		var mean float64
		for _, ms := range launch[system] {
			mean += ms / float64(len(launch[system]))
		}
		out = append(out, metricValue{Name: "harness.launch_ms." + system, Unit: "ms", Value: mean})
		for _, api := range harness.APIs() {
			key := system + "." + strings.ToLower(api.String())
			out = append(out, metricValue{Name: "harness.execute_s." + key, Unit: "s", Value: sec(execute[key])})
		}
	}
	return append(out,
		metricValue{Name: "flink.subtask_busy_s", Unit: "s", Value: sec(flinkBusy)},
		metricValue{Name: "spark.batches", Unit: "count", Value: sparkBatches},
		metricValue{Name: "spark.batch_busy_s", Unit: "s", Value: sec(sparkBusy)},
		metricValue{Name: "apex.partition_busy_s", Unit: "s", Value: sec(apexBusy)},
		metricValue{Name: "harness.end_lag_records", Unit: "count", Value: endLag},
		metricValue{Name: "obs.trace_overhead_ratio", Unit: "ratio", Value: wall(traced) / wall(untraced)},
	)
}
