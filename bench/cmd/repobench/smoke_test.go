package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// smokeWorkload keeps the whole smoke under 20 s: 2k-record inputs.
func smokeWorkload(w workload) workload { return w.capRecords(2000) }

func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads() {
		wr, err := timedPhase(smokeWorkload(w), 7, 0, 0, 1)
		if err != nil {
			t.Fatalf("%s: %v (failures: %v)", w.Name, err, wr.Failures)
		}
		want := 6 * len(w.Queries)
		if w.Twin {
			want *= 2
		}
		if wr.Failed != 0 || wr.Attempted != want {
			t.Errorf("%s: attempted %d failed %d %v, want %d cells and no failure", w.Name, wr.Attempted, wr.Failed, wr.Failures, want)
		}
		if len(wr.EndToEnd) != len(endToEndDefs()) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.Name, len(wr.EndToEnd), len(endToEndDefs()))
		}
		for _, m := range wr.EndToEnd {
			if !(m.Value > 0) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %v, want a positive number", w.Name, m.Name, m.Value)
			}
		}
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesTheDriver(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the driver's default is %d", b.RunSeconds, defaultSeconds)
	}
	var names, want []string
	for _, w := range b.Workloads {
		names = append(names, w.Name+": "+w.Why)
	}
	for _, w := range workloads() {
		want = append(want, w.Name+": "+w.Why)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads = %q, the driver has %q", names, want)
	}
	defs := endToEndDefs()
	if len(b.EndToEnd) != len(defs) {
		t.Fatalf("%d end_to_end metrics, the driver has %d", len(b.EndToEnd), len(defs))
	}
	for i, d := range defs {
		m := b.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Bound != d.Bound || m.Better != "lower" {
			t.Errorf("end_to_end[%d] = %+v, the driver has %+v, lower is better", i, m, d)
		}
	}
}

// TestTracedRun checks the traced run of one small workload: it emits
// exactly the per-layer metrics BENCHMARK.json lists, and the self times
// of the blocking spans add up to the traced rep's wall time.
func TestTracedRun(t *testing.T) {
	w, err := workloadByName("stateful_zero")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	wr, err := tracePhase(smokeWorkload(w), 7, dir)
	if err != nil {
		t.Fatalf("%v (failures: %v)", err, wr.Failures)
	}
	var got, want []string
	for _, m := range wr.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 {
			t.Errorf("%s = %v", m.Name, m.Value)
		}
	}
	for _, m := range readBenchmarkJSON(t).PerLayer {
		want = append(want, m.Name+" "+m.Unit)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("per-layer metrics differ from BENCHMARK.json:\n got %v\nwant %v", got, want)
	}

	data, err := os.ReadFile(filepath.Join(dir, "trace_stateful_zero.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if diff := (tf.BlockingSelfSumNs - tf.TracedRepNs).Abs(); tf.TracedRepNs <= 0 || diff > tf.TracedRepNs/20 {
		t.Errorf("blocking self times sum to %v, the traced rep took %v: more than 5%% apart", tf.BlockingSelfSumNs, tf.TracedRepNs)
	}
	byID := map[int]span{}
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	for _, s := range tf.Spans {
		p, ok := byID[s.Parent]
		if s.Parent != 0 && !ok {
			t.Errorf("span %d %q has no parent %d", s.ID, s.Name, s.Parent)
		}
		// A child starts inside its parent; the tracer's clock reads are
		// a few instructions apart, hence the slack.
		if ok && s.Blocking && (s.Start+time.Millisecond < p.Start || s.end() > p.end()+time.Millisecond) {
			t.Errorf("span %d %q [%v,%v] escapes its parent %q [%v,%v]", s.ID, s.Name, s.Start, s.end(), p.Name, p.Start, p.end())
		}
		if s.Self < 0 || s.Self > s.Dur {
			t.Errorf("span %d %q: self %v outside [0, %v]", s.ID, s.Name, s.Self, s.Dur)
		}
	}
}
