// Command repobench is the repository's benchmark: four workloads, nine
// end-to-end metrics measured with tracing off, and a separate traced
// run that times every layer from outside. See bench/README.md.
//
//	repobench -seed 42                       every workload, both phases
//	repobench -workload calibrated -trace 0  one workload, timed reps only
//	repobench -compare a.json b.json         compare two -json reports
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 28

// minReps is the fewest timed reps a median is taken over.
const minReps = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// contractResult is the one-line JSON object the last line of standard
// output holds when a single workload and phase were selected.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all four)")
	seed := fs.Uint64("seed", 42, "dataset seed, passed on as harness.Config.DatasetSeed")
	seconds := fs.Int("seconds", defaultSeconds, "seconds of timed reps per workload; record counts never change")
	trace := fs.Int("trace", -1, "0: timed reps only (end-to-end metrics), 1: traced run only (per-layer metrics), default: both")
	outDir := fs.String("out", "out", "directory the trace files are written to")
	jsonPath := fs.String("json", "", "write the full report to this file, the input of -compare")
	compare := fs.Bool("compare", false, "compare two reports: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: repobench -compare a.json b.json")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *trace < -1 || *trace > 1 || *seconds < 1 {
		fmt.Fprintln(stderr, "repobench: bad arguments")
		fs.Usage()
		return 2
	}
	selected := workloads()
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "repobench:", err)
			return 2
		}
		selected = []workload{w}
	}
	if *trace != 0 {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "repobench:", err)
			return 1
		}
	}

	rep := report{Machine: machine()}
	fmt.Fprintf(stdout, "# nproc=%d GOMAXPROCS=%d %s seed=%d\n", rep.Machine.NumCPU, rep.Machine.GOMAXPROCS, rep.Machine.GoVersion, *seed)
	failed := false
	for _, w := range selected {
		wr := workloadReport{Workload: w.Name, Seed: *seed}
		if *trace != 1 {
			timed, err := timedPhase(w, *seed, time.Duration(*seconds)*time.Second, cellSlice, minReps)
			if err != nil {
				fmt.Fprintf(stderr, "repobench: %s: %v\n", w.Name, err)
				failed = true
			}
			wr = timed
			note := fmt.Sprintf("reps=%d cells=%d cell_runs=%d latency_obs=%d", wr.Reps, wr.Cells, wr.CellRuns, wr.LatencyObservations)
			printMetrics(stdout, w.Name, note, wr.EndToEnd)
			printMetrics(stdout, w.Name, note, []metricValue{{Name: "driver.machine_speed_ratio", Unit: "ratio", Value: wr.MachineSpeed}})
			printMetrics(stdout, w.Name, note, wr.Slowdowns)
		}
		if *trace != 0 {
			traced, err := tracePhase(w, *seed, *outDir)
			if err != nil {
				fmt.Fprintf(stderr, "repobench: %s: traced run: %v\n", w.Name, err)
				failed = true
			}
			wr.add(traced.Attempted, traced.Failures)
			wr.PerLayer = traced.PerLayer
			if len(wr.Slowdowns) == 0 {
				wr.Slowdowns = traced.Slowdowns
				printMetrics(stdout, w.Name, "untraced rep of the traced run", wr.Slowdowns)
			}
			printMetrics(stdout, w.Name, "traced run", wr.PerLayer)
		}
		fmt.Fprintf(stdout, "%-15s %-48s %14.4f %-6s cells_attempted=%d cells_failed=%d\n", w.Name, "failed_share", wr.FailedShare, "ratio", wr.Attempted, wr.Failed)
		for _, f := range wr.Failures {
			fmt.Fprintf(stderr, "repobench: %s: failed cell: %s\n", w.Name, f)
		}
		failed = failed || wr.Failed > 0
		rep.Workloads = append(rep.Workloads, wr)
	}
	rep.ComputeShare = computeShare(rep.Workloads)
	printMetrics(stdout, "all", "stateless_zero / calibrated, Identity", rep.ComputeShare)

	if *jsonPath != "" {
		if err := writeJSONFile(*jsonPath, rep); err != nil {
			fmt.Fprintln(stderr, "repobench:", err)
			return 1
		}
	}
	if len(selected) == 1 && *trace >= 0 {
		wr := rep.Workloads[0]
		ms := wr.EndToEnd
		if *trace == 1 {
			ms = wr.PerLayer
		}
		res := contractResult{Correct: !failed, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]contractMetric{}}
		for _, m := range ms {
			res.Metrics[m.Name] = contractMetric{Value: m.Value, Unit: m.Unit}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "repobench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if failed {
		return 1
	}
	return 0
}
