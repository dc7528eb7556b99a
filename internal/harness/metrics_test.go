package harness

import (
	"strings"
	"testing"

	"beambench/internal/broker"
	"beambench/internal/metrics"
	"beambench/internal/obs"
	"beambench/internal/queries"
	"beambench/internal/simcost"
)

// newMetricsRunner builds a small runner with telemetry on.
func newMetricsRunner(t *testing.T, records, runs int) *Runner {
	t.Helper()
	r, err := New(Config{
		Records:        records,
		Runs:           runs,
		DisableNoise:   true,
		CollectMetrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestLatencyCollectedForEveryCell runs the full 12-setup matrix of the
// grep query with telemetry on and checks that every cell — all three
// systems, native and Beam — reports a latency distribution covering
// every output record, plus non-empty per-stage throughput.
func TestLatencyCollectedForEveryCell(t *testing.T) {
	r := newMetricsRunner(t, 500, 2)
	rep, err := r.RunQuery(queries.Grep)
	if err != nil {
		t.Fatal(err)
	}
	report, buildErr := BuildReport(r.Config(), rep)
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	report.AttachMetrics(r.Metrics())

	if len(report.Cells) != 12 {
		t.Fatalf("got %d cells, want 12", len(report.Cells))
	}
	for _, c := range report.Cells {
		if c.Latency == nil {
			t.Fatalf("%s %s: no latency block", c.Setup.Label(), c.Setup.Query)
		}
		wantN := c.OutputRecords * int64(r.Config().Runs)
		if c.Latency.Count != wantN {
			t.Errorf("%s: latency count %d, want %d (outputs x runs)", c.Setup.Label(), c.Latency.Count, wantN)
		}
		if c.Latency.P50 <= 0 || c.Latency.P99 < c.Latency.P50 || c.Latency.Max < c.Latency.P99 {
			t.Errorf("%s: implausible latency quantiles %+v", c.Setup.Label(), *c.Latency)
		}
		if len(c.Stages) == 0 {
			t.Errorf("%s: no stage throughput", c.Setup.Label())
		}
		var sawOutput bool
		for _, s := range c.Stages {
			if s.Records == wantN {
				sawOutput = true
			}
		}
		if !sawOutput {
			t.Errorf("%s: no stage carries the output record count %d: %+v", c.Setup.Label(), wantN, c.Stages)
		}
	}

	text, err := report.FormatLatency()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"p50", "p90", "p99", "rec/s"} {
		if !strings.Contains(text, want) {
			t.Errorf("FormatLatency output lacks %q:\n%s", want, text)
		}
	}
}

// TestLatencySampleQueryPairs checks the survivor mapping on the one
// query whose output is a proper subset chosen by a seeded hash: the
// pairing must line up exactly, or observeLatencies errors out.
func TestLatencySampleQueryPairs(t *testing.T) {
	r := newMetricsRunner(t, 400, 1)
	setup := Setup{System: SystemApex, API: APIBeam, Query: queries.Sample, Parallelism: 1}
	if _, err := r.RunSingle(setup, 0); err != nil {
		t.Fatal(err)
	}
	col, ok := r.Metrics().Get(cellKey(setup))
	if !ok {
		t.Fatal("no collector for sample cell")
	}
	ix, err := r.survivorIndex(queries.Sample)
	if err != nil {
		t.Fatal(err)
	}
	if got := col.LatencySummary().Count; got != int64(ix.Expected()) {
		t.Errorf("latency count %d, want %d survivors", got, ix.Expected())
	}
}

// TestMetricsDisabledByDefault keeps the telemetry opt-in: without
// CollectMetrics the report has no latency blocks and FormatLatency
// refuses.
func TestMetricsDisabledByDefault(t *testing.T) {
	r, err := New(Config{Records: 200, Runs: 1, DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics() != nil {
		t.Fatal("Metrics registry exists without CollectMetrics")
	}
	res, err := r.RunCell(Setup{System: SystemFlink, API: APINative, Query: queries.Identity, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := BuildReport(r.Config(), res)
	if err != nil {
		t.Fatal(err)
	}
	rep.AttachMetrics(r.Metrics())
	if rep.Cells[0].Latency != nil || rep.Cells[0].Stages != nil {
		t.Error("latency/stages present without CollectMetrics")
	}
	if _, err := rep.FormatLatency(); err == nil {
		t.Error("FormatLatency succeeded without collected metrics")
	}
}

// TestOutputRecordsPerRun pins the satellite fix: the report keeps every
// run's output count, not only the last one.
func TestOutputRecordsPerRun(t *testing.T) {
	r, err := New(Config{Records: 300, Runs: 3, DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunCell(Setup{System: SystemSpark, API: APINative, Query: queries.Grep, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := BuildReport(r.Config(), res)
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Cells[0]
	if len(c.OutputRecordsPerRun) != 3 {
		t.Fatalf("OutputRecordsPerRun = %v, want 3 entries", c.OutputRecordsPerRun)
	}
	for i, n := range c.OutputRecordsPerRun {
		if n != c.OutputRecords {
			t.Errorf("run %d output %d != cell output %d", i, n, c.OutputRecords)
		}
	}
}

// TestNondeterminismGuard stubs the native Flink executor to emit a
// different number of records on every run; RunCell must fail, and must
// keep the completed runs.
func TestNondeterminismGuard(t *testing.T) {
	orig := nativeExecutors[SystemFlink]
	defer func() { nativeExecutors[SystemFlink] = orig }()

	calls := 0
	nativeExecutors[SystemFlink] = func(r *Runner, setup Setup, w queries.Workload, sim *simcost.Simulator, col *metrics.Collector, tr *obs.Tracer) error {
		calls++
		p, err := w.Broker.NewProducer(w.Producer)
		if err != nil {
			return err
		}
		for range calls { // 1 record on run 0, 2 on run 1, ...
			if err := p.Send(w.OutputTopic, nil, []byte("x")); err != nil {
				return err
			}
		}
		return p.Close()
	}

	r, err := New(Config{Records: 50, Runs: 3, DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	setup := Setup{System: SystemFlink, API: APINative, Query: queries.Identity, Parallelism: 1}
	res, err := r.RunCell(setup)
	if err == nil {
		t.Fatal("RunCell accepted nondeterministic output counts")
	}
	if !strings.Contains(err.Error(), "nondeterministic") {
		t.Errorf("error %v does not name nondeterminism", err)
	}
	if len(res) != 2 {
		t.Errorf("kept %d runs, want 2 (the completed ones)", len(res))
	}
}

// TestNondeterminismGuardExemptsSample: the sample query's contract is a
// random subset, so varying counts must not fail the cell.
func TestNondeterminismGuardExemptsSample(t *testing.T) {
	orig := nativeExecutors[SystemFlink]
	defer func() { nativeExecutors[SystemFlink] = orig }()

	calls := 0
	nativeExecutors[SystemFlink] = func(r *Runner, setup Setup, w queries.Workload, sim *simcost.Simulator, col *metrics.Collector, tr *obs.Tracer) error {
		calls++
		p, err := w.Broker.NewProducer(w.Producer)
		if err != nil {
			return err
		}
		for range calls {
			if err := p.Send(w.OutputTopic, nil, []byte("x")); err != nil {
				return err
			}
		}
		return p.Close()
	}

	r, err := New(Config{Records: 50, Runs: 3, DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	setup := Setup{System: SystemFlink, API: APINative, Query: queries.Sample, Parallelism: 1}
	res, err := r.RunCell(setup)
	if err != nil {
		t.Fatalf("RunCell failed on sample: %v", err)
	}
	if len(res) != 3 {
		t.Errorf("got %d runs, want 3", len(res))
	}
}

// TestLatencyPairingSurvivesReordering stubs an executor that writes
// the identity outputs in reverse order — the worst case of parallel
// partitions interleaving the output topic. The identity-aware FIFO
// pairing must still pair every output with a genuine source input (an
// index-based k-th-output = k-th-input mapping would silently fabricate
// latencies here).
func TestLatencyPairingSurvivesReordering(t *testing.T) {
	orig := nativeExecutors[SystemFlink]
	defer func() { nativeExecutors[SystemFlink] = orig }()

	nativeExecutors[SystemFlink] = func(r *Runner, setup Setup, w queries.Workload, sim *simcost.Simulator, col *metrics.Collector, tr *obs.Tracer) error {
		c, err := w.Broker.NewConsumer(broker.ConsumerConfig{MaxPollRecords: 100_000})
		if err != nil {
			return err
		}
		if err := c.Assign(w.InputTopic, 0, 0); err != nil {
			return err
		}
		recs, err := c.Poll()
		if err != nil {
			return err
		}
		p, err := w.Broker.NewProducer(w.Producer)
		if err != nil {
			return err
		}
		for i := len(recs) - 1; i >= 0; i-- {
			if err := p.Send(w.OutputTopic, nil, recs[i].Value); err != nil {
				return err
			}
		}
		return p.Close()
	}

	r := newMetricsRunner(t, 200, 1)
	setup := Setup{System: SystemFlink, API: APINative, Query: queries.Identity, Parallelism: 2}
	if _, err := r.RunSingle(setup, 0); err != nil {
		t.Fatalf("reordered output failed pairing: %v", err)
	}
	col, ok := r.Metrics().Get(cellKey(setup))
	if !ok {
		t.Fatal("no collector for reordered cell")
	}
	lat := col.LatencySummary()
	if lat.Count != 200 {
		t.Errorf("latency count = %d, want 200", lat.Count)
	}
	if lat.P50 <= 0 {
		t.Errorf("p50 = %v, want > 0", lat.P50)
	}
}

// TestLatencyMismatchSurfaces: when the output count cannot be paired
// with the expected survivors, telemetry must fail loudly rather than
// report bogus latencies.
func TestLatencyMismatchSurfaces(t *testing.T) {
	orig := nativeExecutors[SystemFlink]
	defer func() { nativeExecutors[SystemFlink] = orig }()

	nativeExecutors[SystemFlink] = func(r *Runner, setup Setup, w queries.Workload, sim *simcost.Simulator, col *metrics.Collector, tr *obs.Tracer) error {
		p, err := w.Broker.NewProducer(w.Producer)
		if err != nil {
			return err
		}
		if err := p.Send(w.OutputTopic, nil, []byte("only-one")); err != nil {
			return err
		}
		return p.Close()
	}

	r := newMetricsRunner(t, 50, 1)
	setup := Setup{System: SystemFlink, API: APINative, Query: queries.Identity, Parallelism: 1}
	_, err := r.RunSingle(setup, 0)
	if err == nil {
		t.Fatal("RunSingle accepted unpairable output")
	}
	if !strings.Contains(err.Error(), "survivors") {
		t.Errorf("error %v does not explain the pairing failure", err)
	}
}

// TestParallelMatrixCarriesMetrics: the concurrent scheduler must attach
// telemetry exactly like the sequential path.
func TestParallelMatrixCarriesMetrics(t *testing.T) {
	r := newMetricsRunner(t, 300, 1)
	rep, err := r.RunMatrix(t.Context(), []queries.Query{queries.Identity}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 12 {
		t.Fatalf("got %d cells, want 12", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Latency == nil || c.Latency.Count == 0 {
			t.Errorf("%s: missing latency under parallel scheduling", c.Setup.Label())
		}
	}
}

// TestFinishedCellReleasesSamples: once RunCell returns, the cell's
// collector has fixed its latency summary and dropped the per-record
// samples. The summary read just before the cell ends (from the
// progress line runCellRuns emits after its last run) equals the one
// read after, and the report's Latency block is that same summary.
func TestFinishedCellReleasesSamples(t *testing.T) {
	var r *Runner
	var before metrics.LatencySummary
	setup := Setup{System: SystemFlink, API: APINative, Query: queries.Identity, Parallelism: 1}
	r, err := New(Config{
		Records:        500,
		Runs:           2,
		DisableNoise:   true,
		CollectMetrics: true,
		Progress: func(string) {
			col, _ := r.Metrics().Get(cellKey(setup))
			before = col.LatencySummary()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunCell(setup)
	if err != nil {
		t.Fatal(err)
	}
	col, ok := r.Metrics().Get(cellKey(setup))
	if !ok {
		t.Fatal("no collector for the cell")
	}
	if before.Count != 2*500 {
		t.Fatalf("summary before the cell ended covers %d records, want %d", before.Count, 2*500)
	}
	if after := col.LatencySummary(); after != before {
		t.Fatalf("LatencySummary after the cell = %+v, before = %+v", after, before)
	}
	rep, err := BuildReport(r.Config(), res)
	if err != nil {
		t.Fatal(err)
	}
	rep.AttachMetrics(r.Metrics())
	if lat := rep.Cells[0].Latency; lat == nil || *lat != before {
		t.Fatalf("report latency = %+v, want %+v", lat, before)
	}
	// A sealed collector holds no samples and takes none: observing
	// into it panics.
	defer func() {
		if recover() == nil {
			t.Fatal("finished cell's collector still accepts observations")
		}
	}()
	col.ObserveLatencySeconds([]float64{1})
}
