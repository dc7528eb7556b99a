package main

import (
	"fmt"
	"io"
	"slices"
)

// verdict is the outcome of comparing one end-to-end metric of one
// workload between a parent report (a) and a change report (b). All
// end-to-end metrics are lower-is-better.
type verdict struct {
	Workload string
	Metric   string
	Unit     string
	A, B     float64
	Change   float64 // (B-A)/A
	Bound    float64
	Status   string
}

const (
	statusOK         = "ok"
	statusWorse      = "WORSE"
	statusUnresolved = "unresolved"
	statusMissing    = "MISSING"
)

// judge compares one metric. Worse means the median worsened past the
// bound. A change within the bound still counts as unresolved, not as
// unchanged, when either side's interquartile range over its reps is
// wider than the bound — unless every rep of b reads better than every
// rep of a.
func judge(a, b metricValue) verdict {
	v := verdict{Metric: a.Name, Unit: a.Unit, A: a.Value, B: b.Value, Bound: a.Bound, Status: statusOK}
	if !(a.Value > 0) {
		v.Status = statusMissing
		return v
	}
	v.Change = (b.Value - a.Value) / a.Value
	if v.Change > a.Bound {
		v.Status = statusWorse
		return v
	}
	spread := func(m metricValue) float64 {
		q1, q3, err := quartiles(m.Reps)
		if err != nil {
			return 0
		}
		return (q3 - q1) / a.Value
	}
	if max(spread(a), spread(b)) > a.Bound {
		if len(a.Reps) > 0 && len(b.Reps) > 0 && slices.Max(b.Reps) < slices.Min(a.Reps) {
			return v
		}
		v.Status = statusUnresolved
	}
	return v
}

// compareReports judges every workload x end-to-end metric of a against
// b. ok is false when any metric is worse than its bound, is missing
// from b, or a workload's failed share rose.
func compareReports(a, b *report) (verdicts []verdict, failures []string, ok bool) {
	ok = true
	bw := map[string]workloadReport{}
	for _, w := range b.Workloads {
		bw[w.Workload] = w
	}
	for _, wa := range a.Workloads {
		wb, found := bw[wa.Workload]
		if !found {
			failures = append(failures, fmt.Sprintf("%s: missing from the second report", wa.Workload))
			ok = false
			continue
		}
		if wb.FailedShare > wa.FailedShare {
			failures = append(failures, fmt.Sprintf("%s: failed_share rose from %.4f to %.4f", wa.Workload, wa.FailedShare, wb.FailedShare))
			ok = false
		}
		bm := map[string]metricValue{}
		for _, m := range wb.EndToEnd {
			bm[m.Name] = m
		}
		for _, ma := range wa.EndToEnd {
			mb, found := bm[ma.Name]
			v := verdict{Workload: wa.Workload, Metric: ma.Name, Unit: ma.Unit, A: ma.Value, Bound: ma.Bound, Status: statusMissing}
			if found {
				v = judge(ma, mb)
				v.Workload = wa.Workload
			}
			if v.Status == statusWorse || v.Status == statusMissing {
				ok = false
			}
			verdicts = append(verdicts, v)
		}
	}
	return verdicts, failures, ok
}

func runCompare(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readReport(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "repobench:", err)
		return 2
	}
	b, err := readReport(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "repobench:", err)
		return 2
	}
	verdicts, failures, ok := compareReports(a, b)
	fmt.Fprintf(stdout, "%-15s %-24s %14s %14s %8s %6s  %s\n", "workload", "metric", "a", "b", "change", "bound", "status")
	for _, v := range verdicts {
		fmt.Fprintf(stdout, "%-15s %-24s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n",
			v.Workload, v.Metric, v.A, v.B, 100*v.Change, 100*v.Bound, v.Status)
	}
	for _, f := range failures {
		fmt.Fprintln(stdout, f)
	}
	if !ok {
		return 1
	}
	return 0
}
