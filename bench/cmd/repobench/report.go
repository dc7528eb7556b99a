package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"beambench/internal/harness"
	"beambench/internal/stats"
)

// metricValue is one reported metric. Reps holds the per-rep values the
// reported value summarises (medians over reps, or geometric means over
// cells of per-cell medians); -compare reads their quartiles.
type metricValue struct {
	Name  string    `json:"name"`
	Unit  string    `json:"unit"`
	Value float64   `json:"value"`
	Bound float64   `json:"bound,omitempty"`
	Reps  []float64 `json:"reps,omitempty"`
}

// workloadReport is everything one workload produced.
type workloadReport struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Sample counts behind the end-to-end metrics.
	Reps                int   `json:"reps"`
	Cells               int   `json:"cells"`
	CellRuns            int   `json:"cellRuns"`
	LatencyObservations int64 `json:"latencyObservations"`
	// Attempted and Failed count cells over all reps, timed and traced.
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	FailedShare float64  `json:"failedShare"`
	Failures    []string `json:"failures,omitempty"`
	// MachineSpeed is the mean machine speed ratio over the timed reps:
	// reference-kernel time over its nominal time.
	MachineSpeed float64 `json:"machineSpeed,omitempty"`

	EndToEnd []metricValue `json:"endToEnd,omitempty"`
	// Series holds every cell's medians per timed rep.
	Series   []cellSeries  `json:"series,omitempty"`
	PerLayer []metricValue `json:"perLayer,omitempty"`
	// Slowdowns are the per-query Beam/native factors
	// (harness.slowdown.<system>.<query>): results, not costs.
	Slowdowns []metricValue `json:"slowdowns,omitempty"`

	// identityNS is the workload's Identity ns/record per API, kept for
	// the cross-workload compute share.
	identityNS map[harness.API]float64
}

// machineFacts describe the recording machine.
type machineFacts struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func machine() machineFacts {
	return machineFacts{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
}

// report is the file -json writes and -compare reads.
type report struct {
	Machine   machineFacts     `json:"machine"`
	Workloads []workloadReport `json:"workloads"`
	// ComputeShare is Identity ns/record on stateless_zero divided by
	// the same on calibrated, per API; present when both workloads ran.
	ComputeShare []metricValue `json:"computeShare,omitempty"`
}

// add counts attempted cells and their failures towards failed_share.
func (wr *workloadReport) add(attempted int, failures []string) {
	wr.Attempted += attempted
	wr.Failed += len(failures)
	wr.Failures = append(wr.Failures, failures...)
	if wr.Attempted > 0 {
		wr.FailedShare = float64(wr.Failed) / float64(wr.Attempted)
	}
}

func (wr *workloadReport) count(reps []repResult) {
	for _, rep := range reps {
		wr.add(len(rep.Cells)+len(rep.Twins), rep.failures())
	}
}

// meanSpeed is the mean machine speed ratio over the kernel runs around
// the reps' cells and set-ups.
func meanSpeed(reps ...repResult) float64 {
	var sum, n float64
	for _, rep := range reps {
		for _, c := range rep.Cells {
			sum += c.Speed
			n++
		}
		for _, c := range rep.Twins {
			sum += c.Speed
			n++
		}
		for _, s := range rep.SetupSpeed {
			sum += s
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// cellSamples holds every run of one cell, grouped by rep. A rep runs a
// cheap cell several times (see runRep), so the groups differ in length.
type cellSamples struct {
	Key     string
	System  string
	API     harness.API
	Query   string
	Records int
	ByRep   [][]cellRun
	// Compute holds the runs whose times are the compute part of this
	// cell's times: the cell itself on a zero-cost workload, its zero-cost
	// twin on a Twin workload, nil where times are reported as measured.
	Compute *cellSamples
}

// cellTable groups the runs of reps by cell, in first-rep cell order.
func cellTable(reps []repResult) []*cellSamples {
	return tableOf(reps, func(rep repResult) []cellRun { return rep.Cells })
}

// twinTable does the same for the reps' zero-cost twins.
func twinTable(reps []repResult) []*cellSamples {
	return tableOf(reps, func(rep repResult) []cellRun { return rep.Twins })
}

func tableOf(reps []repResult, runs func(repResult) []cellRun) []*cellSamples {
	var out []*cellSamples
	index := map[string]*cellSamples{}
	for i, rep := range reps {
		for _, c := range runs(rep) {
			cs, ok := index[c.Key]
			if !ok {
				cs = &cellSamples{Key: c.Key, System: c.System, API: c.API, Query: c.Query, Records: c.Records, ByRep: make([][]cellRun, len(reps))}
				index[c.Key] = cs
				out = append(out, cs)
			}
			cs.ByRep[i] = append(cs.ByRep[i], c)
		}
	}
	return out
}

// value is the cell's median of f with the share slow of its compute
// part taken off: slow is 1 - 1/speed to bring a time to reference speed
// (see machineSpeed), 0 for the value as measured.
func (cs *cellSamples) value(rep int, f func(cellRun) float64, slow float64) (float64, error) {
	m, err := cs.median(rep, f)
	if err != nil || slow == 0 || cs.Compute == nil {
		return m, err
	}
	c, err := cs.Compute.median(rep, f)
	return m - c*slow, err
}

// median is the median of f over the cell's runs in rep, or over all of
// its runs when rep is allReps.
func (cs *cellSamples) median(rep int, f func(cellRun) float64) (float64, error) {
	var xs []float64
	for i, runs := range cs.ByRep {
		if rep == allReps || rep == i {
			for _, c := range runs {
				xs = append(xs, f(c))
			}
		}
	}
	m, err := median(xs)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", cs.Key, err)
	}
	return m, nil
}

const allReps = -1

// combine folds per-cell values into one number.
type combine func(cells []*cellSamples, values []float64) (float64, error)

// geomeanOverCells weighs every cell equally.
func geomeanOverCells(_ []*cellSamples, values []float64) (float64, error) { return geomean(values) }

// perInputRecord adds the cells' values up and divides by the input
// records the cells read: the cost of the whole matrix per record.
func perInputRecord(cells []*cellSamples, values []float64) (float64, error) {
	var sum, records float64
	for i, cs := range cells {
		sum += values[i]
		records += float64(cs.Records)
	}
	if records == 0 {
		return 0, stats.ErrEmpty
	}
	return sum / records, nil
}

// aggregate reduces each kept cell to its value of f (see value for
// slow) and folds the cells with how. It returns the result over all
// reps, and the same computed from each rep's runs alone.
func aggregate(cells []*cellSamples, keep func(*cellSamples) bool, f func(cellRun) float64, slow float64, how combine) (float64, []float64, error) {
	var kept []*cellSamples
	for _, cs := range cells {
		if keep == nil || keep(cs) {
			kept = append(kept, cs)
		}
	}
	if len(kept) == 0 {
		return 0, nil, stats.ErrEmpty
	}
	at := func(rep int) (float64, error) {
		values := make([]float64, len(kept))
		for i, cs := range kept {
			v, err := cs.value(rep, f, slow)
			if err != nil {
				return 0, err
			}
			values[i] = v
		}
		return how(kept, values)
	}
	value, err := at(allReps)
	if err != nil {
		return 0, nil, err
	}
	perRep := make([]float64, len(kept[0].ByRep))
	for rep := range perRep {
		if perRep[rep], err = at(rep); err != nil {
			return 0, nil, err
		}
	}
	return value, perRep, nil
}

// cellSeries is one cell's medians per timed rep, for the report.
type cellSeries struct {
	Key             string    `json:"key"`
	Records         int       `json:"records"`
	Runs            int       `json:"runs"`
	ExecNSPerRecord []float64 `json:"execNsPerRecord"`
	P50Ms           []float64 `json:"p50Ms"`
	P99Ms           []float64 `json:"p99Ms"`
}

func cellSeriesOf(cells []*cellSamples) ([]cellSeries, error) {
	out := make([]cellSeries, len(cells))
	for i, cs := range cells {
		one := []*cellSamples{cs}
		out[i] = cellSeries{Key: cs.Key, Records: cs.Records}
		for _, runs := range cs.ByRep {
			out[i].Runs += len(runs)
		}
		var err error
		if _, out[i].ExecNSPerRecord, err = aggregate(one, nil, execPerRecord, 0, geomeanOverCells); err != nil {
			return nil, err
		}
		if _, out[i].P50Ms, err = aggregate(one, nil, p50Ms, 0, geomeanOverCells); err != nil {
			return nil, err
		}
		if _, out[i].P99Ms, err = aggregate(one, nil, p99Ms, 0, geomeanOverCells); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func execPerRecord(c cellRun) float64 { return c.ExecNS / float64(c.Records) }
func p50Ms(c cellRun) float64         { return c.P50Sec * 1e3 }
func p99Ms(c cellRun) float64         { return c.P99Sec * 1e3 }

// goodReps drops every rep with a failed cell: a missing or zero cell
// time must not enter a geometric mean.
func goodReps(reps []repResult) []repResult {
	var good []repResult
	for _, rep := range reps {
		if len(rep.failures()) == 0 {
			good = append(good, rep)
		}
	}
	return good
}

// setupSeconds is the time to build one set of the workload's runners:
// per input size the median over every harness.New call, added up. The
// per-rep series does the same from each rep's calls alone.
func setupSeconds(reps []repResult) (float64, []float64, error) {
	sum := func(reps []repResult) (float64, error) {
		bySize := map[int][]float64{}
		for _, rep := range reps {
			for n, xs := range rep.SetupSec {
				bySize[n] = append(bySize[n], xs...)
			}
		}
		if len(bySize) == 0 {
			return 0, stats.ErrEmpty
		}
		var total float64
		for _, xs := range bySize {
			m, err := median(xs)
			if err != nil {
				return 0, err
			}
			total += m
		}
		return total, nil
	}
	perRep := make([]float64, len(reps))
	for i := range reps {
		var err error
		if perRep[i], err = sum(reps[i : i+1]); err != nil {
			return 0, nil, err
		}
	}
	v, err := sum(reps)
	return v, perRep, err
}

// endToEnd computes the end-to-end metrics from the timed reps without
// a failed cell and their cell table. Times are at reference speed: the
// compute part of every cell's time (cellSamples.Compute) and all of the
// set-up are divided by the run's machine speed ratio.
func endToEnd(good []repResult, cells []*cellSamples, speed float64) ([]metricValue, error) {
	if len(good) == 0 {
		return nil, fmt.Errorf("no rep without a failed cell")
	}
	isAPI := func(api harness.API) func(*cellSamples) bool {
		return func(cs *cellSamples) bool { return cs.API == api }
	}

	var out []metricValue
	for _, def := range endToEndDefs() {
		var v float64
		var xs []float64
		var err error
		// Counts are never scaled.
		var slow float64
		if def.Time && speed > 0 {
			slow = 1 - 1/speed
		}
		switch def.Name {
		case "setup_s":
			v, xs, err = setupSeconds(good)
			v -= v * slow
			for i := range xs {
				xs[i] -= xs[i] * slow
			}
		case "native_ns_per_record":
			v, xs, err = aggregate(cells, isAPI(harness.APINative), execPerRecord, slow, geomeanOverCells)
		case "beam_ns_per_record":
			v, xs, err = aggregate(cells, isAPI(harness.APIBeam), execPerRecord, slow, geomeanOverCells)
		case "wall_ns_per_record":
			v, xs, err = aggregate(cells, nil, func(c cellRun) float64 { return c.WallNS }, slow, perInputRecord)
		case "latency_p50_ms":
			v, xs, err = aggregate(cells, nil, p50Ms, slow, geomeanOverCells)
		case "latency_p99_ms":
			v, xs, err = aggregate(cells, nil, p99Ms, slow, geomeanOverCells)
		case "cpu_ns_per_record":
			v, xs, err = aggregate(cells, nil, func(c cellRun) float64 { return c.CPUNS }, slow, perInputRecord)
		case "allocs_per_record":
			v, xs, err = aggregate(cells, nil, func(c cellRun) float64 { return c.Mallocs }, slow, perInputRecord)
		case "alloc_bytes_per_record":
			v, xs, err = aggregate(cells, nil, func(c cellRun) float64 { return c.AllocBytes }, slow, perInputRecord)
		default:
			err = fmt.Errorf("no definition")
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", def.Name, err)
		}
		out = append(out, metricValue{Name: def.Name, Unit: def.Unit, Value: v, Bound: def.Bound, Reps: xs})
	}
	return out, nil
}

// slowdowns computes the Beam/native execution-time factors of cells:
// one per system x query, and per system the geometric mean over the
// workload's queries. Making native faster raises them, so they are
// reported, never gated.
func slowdowns(cells []*cellSamples) (perQuery, perSystem []metricValue, err error) {
	type sq struct{ system, query string }
	exec := map[sq]map[harness.API]float64{}
	var order []sq
	for _, cs := range cells {
		k := sq{cs.System, cs.Query}
		if exec[k] == nil {
			exec[k] = map[harness.API]float64{}
			order = append(order, k)
		}
		if exec[k][cs.API], err = cs.median(allReps, execPerRecord); err != nil {
			return nil, nil, err
		}
	}
	bySystem := map[string][]float64{}
	for _, k := range order {
		beam, native := exec[k][harness.APIBeam], exec[k][harness.APINative]
		if !(beam > 0 && native > 0) {
			return nil, nil, fmt.Errorf("slowdown %s %s: beam %v ns, native %v ns per record", k.system, k.query, beam, native)
		}
		perQuery = append(perQuery, metricValue{Name: "harness.slowdown." + strings.ToLower(k.system+"."+k.query), Unit: "ratio", Value: beam / native})
		bySystem[k.system] = append(bySystem[k.system], beam/native)
	}
	for _, sys := range harness.Systems() {
		fs := bySystem[sys.String()]
		if len(fs) == 0 {
			continue
		}
		g, err := geomean(fs)
		if err != nil {
			return nil, nil, err
		}
		perSystem = append(perSystem, metricValue{Name: "harness.slowdown." + strings.ToLower(sys.String()), Unit: "ratio", Value: g})
	}
	return perQuery, perSystem, nil
}

// identityNS extracts the Identity ns/record per API: the geometric mean
// over the workload's Identity cells.
func identityNS(cells []*cellSamples) map[harness.API]float64 {
	out := map[harness.API]float64{}
	for _, api := range harness.APIs() {
		v, _, err := aggregate(cells, func(cs *cellSamples) bool { return cs.API == api && cs.Query == "Identity" }, execPerRecord, 0, geomeanOverCells)
		if err == nil {
			out[api] = v
		}
	}
	return out
}

// computeShare relates real Go compute to the calibrated total.
func computeShare(wrs []workloadReport) []metricValue {
	var zero, cal map[harness.API]float64
	for _, wr := range wrs {
		switch wr.Workload {
		case "stateless_zero":
			zero = wr.identityNS
		case "calibrated":
			cal = wr.identityNS
		}
	}
	var out []metricValue
	for _, api := range harness.APIs() {
		if zero[api] > 0 && cal[api] > 0 {
			out = append(out, metricValue{Name: "harness.compute_share." + strings.ToLower(api.String()), Unit: "ratio", Value: zero[api] / cal[api]})
		}
	}
	return out
}

func printMetrics(w io.Writer, workload, note string, ms []metricValue) {
	for _, m := range ms {
		fmt.Fprintf(w, "%-15s %-48s %14.4f %-6s %s\n", workload, m.Name, m.Value, m.Unit, note)
	}
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}
