package main

import (
	"fmt"
	"io"
	"text/tabwriter"

	"beambench/internal/harness"
)

// Thresholds bounds how much slower a candidate cell may be before the
// comparison fails. All relative values are fractions (0.25 = +25%).
type Thresholds struct {
	// PerRecord bounds the relative regression of meanSec/records.
	PerRecord float64
	// Latency bounds the relative regression of the p50 and p99
	// event-time latency quantiles.
	Latency float64
	// PerRecordFloor ignores per-record regressions whose absolute
	// delta (in seconds) stays under it — noise guard for cells whose
	// per-record time is near zero.
	PerRecordFloor float64
}

// Verdict classifies one compared quantity.
type Verdict string

const (
	VerdictOK         Verdict = "ok"
	VerdictImproved   Verdict = "improved"
	VerdictRegressed  Verdict = "regressed"
	VerdictDrift      Verdict = "drift"   // correctness change: outputs, skips, matrix shape
	VerdictNoBaseline Verdict = "no-data" // quantity absent on one side, not comparable
)

// CellDiff is the comparison of one matrix cell.
type CellDiff struct {
	Cell string `json:"cell"`

	// Per-record execution time in nanoseconds (meanSec/records*1e9).
	BaseNsPerRecord float64 `json:"baseNsPerRecord"`
	CandNsPerRecord float64 `json:"candNsPerRecord"`
	// TimeDelta is the relative change, positive = slower.
	TimeDelta   float64 `json:"timeDelta"`
	TimeVerdict Verdict `json:"timeVerdict"`

	// P50/P99 event-time latency in seconds; zero when either side
	// carries no latency block.
	BaseP50     float64 `json:"baseP50Sec,omitempty"`
	CandP50     float64 `json:"candP50Sec,omitempty"`
	BaseP99     float64 `json:"baseP99Sec,omitempty"`
	CandP99     float64 `json:"candP99Sec,omitempty"`
	P50Delta    float64 `json:"p50Delta,omitempty"`
	P99Delta    float64 `json:"p99Delta,omitempty"`
	LatVerdict  Verdict `json:"latencyVerdict"`
	OutVerdict  Verdict `json:"outputVerdict"`
	BaseOutputs int64   `json:"baseOutputs"`
	CandOutputs int64   `json:"candOutputs"`

	// Notes carries human-readable detail for drift verdicts.
	Notes string `json:"notes,omitempty"`
}

// Diff is the whole comparison.
type Diff struct {
	Thresholds Thresholds `json:"thresholds"`
	// BaseHost and CandHost are the host facts each report recorded;
	// nil for a report recorded before they were kept. A difference is
	// reported, never failed: it explains a time delta, it is not one.
	BaseHost *harness.Host `json:"baseHost,omitempty"`
	CandHost *harness.Host `json:"candHost,omitempty"`
	// Cells compared on both sides, in baseline (canonical) order.
	Cells []CellDiff `json:"cells"`
	// MissingCells ran in the baseline but not the candidate;
	// AddedCells the reverse. NewSkips are cells that ran in the
	// baseline but are skipped by the candidate; RemovedSkips the
	// reverse (an improvement, reported but never failing).
	MissingCells []string `json:"missingCells,omitempty"`
	AddedCells   []string `json:"addedCells,omitempty"`
	NewSkips     []string `json:"newSkips,omitempty"`
	RemovedSkips []string `json:"removedSkips,omitempty"`
}

// Regressed reports whether the comparison must fail the gate.
func (d *Diff) Regressed() bool {
	if len(d.MissingCells) > 0 || len(d.NewSkips) > 0 {
		return true
	}
	for _, c := range d.Cells {
		if c.TimeVerdict == VerdictRegressed || c.LatVerdict == VerdictRegressed || c.OutVerdict == VerdictDrift {
			return true
		}
	}
	return false
}

// Compare diffs candidate against baseline cell by cell. Cells are
// matched by their matrix key; both reports may have been recorded at
// different workload sizes (per-record time normalizes across them),
// but latency quantiles are compared raw, so latency thresholds only
// make sense between same-shape runs.
func Compare(base, cand *harness.ReportJSON, th Thresholds) *Diff {
	d := &Diff{Thresholds: th, BaseHost: base.Host, CandHost: cand.Host}
	candByKey := map[string]*harness.CellJSON{}
	for i := range cand.Cells {
		candByKey[cand.Cells[i].Key()] = &cand.Cells[i]
	}
	baseKeys := map[string]bool{}

	for i := range base.Cells {
		bc := &base.Cells[i]
		key := bc.Key()
		baseKeys[key] = true
		cc, ok := candByKey[key]
		if !ok {
			d.MissingCells = append(d.MissingCells, key)
			continue
		}
		switch {
		case bc.Skipped && cc.Skipped:
			continue // skipped on both sides: nothing to compare
		case !bc.Skipped && cc.Skipped:
			d.NewSkips = append(d.NewSkips, key)
			continue
		case bc.Skipped && !cc.Skipped:
			d.RemovedSkips = append(d.RemovedSkips, key)
			continue
		}
		d.Cells = append(d.Cells, compareCell(key, bc, cc, base.Records, cand.Records, th))
	}
	for i := range cand.Cells {
		if key := cand.Cells[i].Key(); !baseKeys[key] {
			d.AddedCells = append(d.AddedCells, key)
		}
	}
	return d
}

func compareCell(key string, bc, cc *harness.CellJSON, baseRecords, candRecords int, th Thresholds) CellDiff {
	cd := CellDiff{Cell: key}

	basePer := perRecordSec(bc.MeanSec, baseRecords)
	candPer := perRecordSec(cc.MeanSec, candRecords)
	cd.BaseNsPerRecord = basePer * 1e9
	cd.CandNsPerRecord = candPer * 1e9
	cd.TimeDelta = relDelta(basePer, candPer)
	switch {
	case basePer == 0 || candPer == 0:
		cd.TimeVerdict = VerdictNoBaseline
	case cd.TimeDelta > th.PerRecord && candPer-basePer > th.PerRecordFloor:
		cd.TimeVerdict = VerdictRegressed
	case cd.TimeDelta < 0:
		cd.TimeVerdict = VerdictImproved
	default:
		cd.TimeVerdict = VerdictOK
	}

	cd.LatVerdict = VerdictNoBaseline
	if bc.Latency != nil && cc.Latency != nil {
		cd.BaseP50, cd.CandP50 = bc.Latency.P50, cc.Latency.P50
		cd.BaseP99, cd.CandP99 = bc.Latency.P99, cc.Latency.P99
		cd.P50Delta = relDelta(bc.Latency.P50, cc.Latency.P50)
		cd.P99Delta = relDelta(bc.Latency.P99, cc.Latency.P99)
		switch {
		case cd.P50Delta > th.Latency || cd.P99Delta > th.Latency:
			cd.LatVerdict = VerdictRegressed
		case cd.P50Delta < 0 && cd.P99Delta < 0:
			cd.LatVerdict = VerdictImproved
		default:
			cd.LatVerdict = VerdictOK
		}
	}

	cd.BaseOutputs, cd.CandOutputs = bc.OutputRecords, cc.OutputRecords
	cd.OutVerdict = VerdictOK
	// Output counts are deterministic per workload size; compare only
	// when both reports ran the same size.
	if baseRecords == candRecords && bc.OutputRecords != cc.OutputRecords {
		cd.OutVerdict = VerdictDrift
		cd.Notes = fmt.Sprintf("output count changed: %d -> %d", bc.OutputRecords, cc.OutputRecords)
	}
	return cd
}

func perRecordSec(meanSec float64, records int) float64 {
	if records <= 0 {
		return 0
	}
	return meanSec / float64(records)
}

func hostLabel(h *harness.Host) string {
	if h == nil {
		return "not recorded"
	}
	return h.String()
}

// relDelta is (cand-base)/base, positive = candidate slower/larger.
func relDelta(base, cand float64) float64 {
	if base == 0 {
		return 0
	}
	return (cand - base) / base
}

// WriteTable renders the human-readable comparison.
func (d *Diff) WriteTable(w io.Writer) {
	if d.BaseHost != nil || d.CandHost != nil {
		fmt.Fprintf(w, "HOST base: %s; candidate: %s\n", hostLabel(d.BaseHost), hostLabel(d.CandHost))
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "CELL\tBASE ns/rec\tCAND ns/rec\tΔ time\tΔ p50\tΔ p99\tVERDICT")
	for _, c := range d.Cells {
		verdict := string(c.TimeVerdict)
		if c.LatVerdict == VerdictRegressed {
			verdict = string(VerdictRegressed) + " (latency)"
		}
		if c.OutVerdict == VerdictDrift {
			verdict = string(VerdictDrift) + ": " + c.Notes
		}
		lat50, lat99 := "-", "-"
		if c.LatVerdict != VerdictNoBaseline {
			lat50 = fmt.Sprintf("%+.1f%%", c.P50Delta*100)
			lat99 = fmt.Sprintf("%+.1f%%", c.P99Delta*100)
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%+.1f%%\t%s\t%s\t%s\n",
			c.Cell, c.BaseNsPerRecord, c.CandNsPerRecord, c.TimeDelta*100, lat50, lat99, verdict)
	}
	tw.Flush()
	for _, k := range d.MissingCells {
		fmt.Fprintf(w, "MISSING  %s (in baseline, absent from candidate)\n", k)
	}
	for _, k := range d.NewSkips {
		fmt.Fprintf(w, "NEW SKIP %s (ran in baseline, skipped by candidate)\n", k)
	}
	for _, k := range d.AddedCells {
		fmt.Fprintf(w, "ADDED    %s (not in baseline)\n", k)
	}
	for _, k := range d.RemovedSkips {
		fmt.Fprintf(w, "UNSKIPPED %s (skipped in baseline, runs now)\n", k)
	}
	if d.Regressed() {
		fmt.Fprintln(w, "RESULT: REGRESSED")
	} else {
		fmt.Fprintln(w, "RESULT: OK")
	}
}
