// Benchmarks regenerating every table and figure of the paper's
// evaluation (Hesse et al., ICDCS 2019, Section III). One benchmark per
// artifact:
//
//	Figure 6-9   BenchmarkFig6Identity .. BenchmarkFig9Grep
//	Figure 10    BenchmarkFig10RelStdDev
//	Figure 11    BenchmarkFig11Slowdown
//	Figure 12/13 BenchmarkFig12NativePlan / BenchmarkFig13BeamPlan
//	Table II     BenchmarkTableIIDatasetSelectivity
//	Table III    BenchmarkTableIIIFlinkIdentityRuns
//
// Each iteration of an execution benchmark performs one complete
// benchmark run (ingestion, execution on a fresh cluster, result
// calculation); the reported exec-s/op metric is the paper's execution
// time (output-topic LogAppendTime span). Benchmarks default to a
// reduced workload; set BEAMBENCH_RECORDS to raise it (the slowdown
// factors are per-record-dominated and scale-invariant).
//
// Ablation benchmarks isolate the load-bearing mechanism choices: Flink
// operator chaining, Apex buffer-server emit mode, and Spark micro-batch
// sizing.
package beambench_test

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"beambench/internal/aol"
	"beambench/internal/apex"
	"beambench/internal/beam"
	"beambench/internal/beam/runner/flinkrunner"
	_ "beambench/internal/beam/runners" // register the bundled runners
	"beambench/internal/broker"
	"beambench/internal/flink"
	"beambench/internal/harness"
	"beambench/internal/metrics"
	"beambench/internal/obs"
	"beambench/internal/queries"
	"beambench/internal/simcost"
	"beambench/internal/spark"
	"beambench/internal/stats"
	"beambench/internal/yarn"
)

// benchRecords returns the workload size for execution benchmarks.
func benchRecords() int {
	if s := os.Getenv("BEAMBENCH_RECORDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 5_000
}

// newBenchRunner builds a harness runner with noise disabled so the
// benchmark framework's own statistics stay meaningful.
func newBenchRunner(b *testing.B) *harness.Runner {
	b.Helper()
	r, err := harness.New(harness.Config{
		Records:      benchRecords(),
		Runs:         1,
		DisableNoise: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// benchSetup runs one harness setup per iteration and reports the
// paper's execution-time metric.
func benchSetup(b *testing.B, r *harness.Runner, setup harness.Setup) {
	b.Helper()
	var totalExec float64
	for i := 0; b.Loop(); i++ {
		res, err := r.RunSingle(setup, i)
		if err != nil {
			b.Fatal(err)
		}
		totalExec += res.ExecutionTime.Seconds()
	}
	b.ReportMetric(totalExec/float64(b.N), "exec-s/op")
}

// benchFigure runs the twelve-setup matrix of one query as
// sub-benchmarks, regenerating one of Figures 6-9.
func benchFigure(b *testing.B, q queries.Query) {
	r := newBenchRunner(b)
	for _, sys := range harness.Systems() {
		for _, api := range harness.APIs() {
			for _, p := range []int{1, 2} {
				setup := harness.Setup{System: sys, API: api, Query: q, Parallelism: p}
				b.Run(setup.Label(), func(b *testing.B) {
					benchSetup(b, r, setup)
				})
			}
		}
	}
}

// BenchmarkMatrixWallClock measures the end-to-end wall-clock time of
// the full 4-query x 12-setup matrix (one run per cell) sequentially and
// with one worker per CPU. The per-op time is the whole-matrix latency;
// the ratio between the two sub-benchmarks is the speedup the concurrent
// scheduler buys on this machine.
func BenchmarkMatrixWallClock(b *testing.B) {
	records := max(benchRecords()/5, 500)
	counts := []int{1}
	if n := harness.DefaultWorkers(); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			r, err := harness.New(harness.Config{
				Records:      records,
				Runs:         1,
				DisableNoise: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			for b.Loop() {
				rep, err := r.RunMatrix(context.Background(), queries.All(), workers)
				if err != nil {
					b.Fatal(err)
				}
				if want := len(queries.All()) * 12; len(rep.Cells) != want {
					b.Fatalf("matrix produced %d cells, want %d", len(rep.Cells), want)
				}
			}
		})
	}
}

func BenchmarkFig6Identity(b *testing.B)   { benchFigure(b, queries.Identity) }
func BenchmarkFig7Sample(b *testing.B)     { benchFigure(b, queries.Sample) }
func BenchmarkFig8Projection(b *testing.B) { benchFigure(b, queries.Projection) }
func BenchmarkFig9Grep(b *testing.B)       { benchFigure(b, queries.Grep) }

// BenchmarkFig10RelStdDev reproduces the Figure 10 metric for one
// representative system-query-SDK combination per iteration: three runs
// with the noise model enabled, summarized as a relative standard
// deviation.
func BenchmarkFig10RelStdDev(b *testing.B) {
	r, err := harness.New(harness.Config{Records: benchRecords(), Runs: 3})
	if err != nil {
		b.Fatal(err)
	}
	setup := harness.Setup{
		System: harness.SystemFlink, API: harness.APINative,
		Query: queries.Identity, Parallelism: 1,
	}
	var total float64
	for i := 0; b.Loop(); i++ {
		times := make([]float64, 0, 3)
		for run := range 3 {
			res, err := r.RunSingle(setup, i*3+run)
			if err != nil {
				b.Fatal(err)
			}
			times = append(times, res.ExecutionTime.Seconds())
		}
		total += stats.RelStdDev(times)
	}
	b.ReportMetric(total/float64(b.N), "relstddev/op")
}

// BenchmarkFig11Slowdown reports the Beam-vs-native slowdown factor per
// system and query: each iteration runs one Beam and one native
// execution at parallelism 1 and reports the ratio. The workload has a
// 20k-record floor: below that, grep's handful of matches fits in a
// single producer linger window and the native span degenerates to zero.
func BenchmarkFig11Slowdown(b *testing.B) {
	r, err := harness.New(harness.Config{
		Records:      max(benchRecords(), 20_000),
		Runs:         1,
		DisableNoise: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, sys := range harness.Systems() {
		for _, q := range queries.All() {
			b.Run(fmt.Sprintf("%s_%s", sys, q), func(b *testing.B) {
				var totalSF float64
				for i := 0; b.Loop(); i++ {
					beamRes, err := r.RunSingle(harness.Setup{System: sys, API: harness.APIBeam, Query: q, Parallelism: 1}, i)
					if err != nil {
						b.Fatal(err)
					}
					nativeRes, err := r.RunSingle(harness.Setup{System: sys, API: harness.APINative, Query: q, Parallelism: 1}, i)
					if err != nil {
						b.Fatal(err)
					}
					if nativeRes.ExecutionTime <= 0 {
						b.Fatal("native execution time is zero; raise BEAMBENCH_RECORDS")
					}
					totalSF += beamRes.ExecutionTime.Seconds() / nativeRes.ExecutionTime.Seconds()
				}
				b.ReportMetric(totalSF/float64(b.N), "slowdown/op")
			})
		}
	}
}

// BenchmarkFig12NativePlan measures constructing and rendering the
// native grep execution plan (3 nodes, paper Figure 12).
func BenchmarkFig12NativePlan(b *testing.B) {
	broker0, w := planWorkload(b)
	_ = broker0
	cluster, err := flink.NewCluster(flink.ClusterConfig{})
	if err != nil {
		b.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()
	var nodes int
	for b.Loop() {
		env := flink.NewEnvironment(cluster)
		if err := queries.NativeFlink(env, w, queries.Grep); err != nil {
			b.Fatal(err)
		}
		plan, err := env.ExecutionPlan()
		if err != nil {
			b.Fatal(err)
		}
		nodes = plan.Len()
	}
	b.ReportMetric(float64(nodes), "plan-nodes")
}

// BenchmarkFig13BeamPlan measures constructing and rendering the Beam
// grep execution plan (7 nodes, paper Figure 13).
func BenchmarkFig13BeamPlan(b *testing.B) {
	_, w := planWorkload(b)
	cluster, err := flink.NewCluster(flink.ClusterConfig{})
	if err != nil {
		b.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()
	var nodes int
	for b.Loop() {
		p, err := queries.BeamPipeline(w, queries.Grep)
		if err != nil {
			b.Fatal(err)
		}
		env, _, err := flinkrunner.Translate(p, flinkrunner.Config{Cluster: cluster})
		if err != nil {
			b.Fatal(err)
		}
		plan, err := env.ExecutionPlan()
		if err != nil {
			b.Fatal(err)
		}
		nodes = plan.Len()
	}
	b.ReportMetric(float64(nodes), "plan-nodes")
}

func planWorkload(b *testing.B) (*broker.Broker, queries.Workload) {
	b.Helper()
	br := broker.New()
	for _, topic := range []string{"input", "output"} {
		if err := br.CreateTopic(topic, broker.TopicConfig{Partitions: 1}); err != nil {
			b.Fatal(err)
		}
	}
	return br, queries.Workload{Broker: br, InputTopic: "input", OutputTopic: "output", Seed: 7}
}

// BenchmarkTableIIDatasetSelectivity regenerates the Table II workload
// characteristics: dataset generation plus grep/sample selectivity.
func BenchmarkTableIIDatasetSelectivity(b *testing.B) {
	n := benchRecords()
	var grepHits, sampleKept int
	for b.Loop() {
		gen, err := aol.NewGenerator(aol.Config{Records: n, Seed: 42, GrepHits: -1})
		if err != nil {
			b.Fatal(err)
		}
		grepHits, sampleKept = 0, 0
		var buf []byte
		for {
			rec, ok := gen.Next()
			if !ok {
				break
			}
			buf = rec.AppendTSV(buf[:0])
			if queries.GrepMatch(buf) {
				grepHits++
			}
			if queries.SampleKeep(buf, 7) {
				sampleKept++
			}
		}
	}
	b.ReportMetric(100*float64(grepHits)/float64(n), "grep-%")
	b.ReportMetric(100*float64(sampleKept)/float64(n), "sample-%")
}

// BenchmarkTableIIIFlinkIdentityRuns reproduces the Table III cell: one
// native Flink identity run per iteration, with the run-noise model
// enabled so outlier runs appear as they do in the paper.
func BenchmarkTableIIIFlinkIdentityRuns(b *testing.B) {
	r, err := harness.New(harness.Config{Records: benchRecords(), Runs: 1})
	if err != nil {
		b.Fatal(err)
	}
	setup := harness.Setup{
		System: harness.SystemFlink, API: harness.APINative,
		Query: queries.Identity, Parallelism: 1,
	}
	var total float64
	for i := 0; b.Loop(); i++ {
		res, err := r.RunSingle(setup, i)
		if err != nil {
			b.Fatal(err)
		}
		total += res.ExecutionTime.Seconds()
	}
	b.ReportMetric(total/float64(b.N), "exec-s/op")
}

// BenchmarkFusionOverhead compares the fused and unfused translation
// modes of the shared optimizer (internal/beam/graphx) per runner, on
// the two pipelines that bracket the paper's output-volume spectrum:
// Identity (100% output) and Grep (~0.3% output). Each iteration runs
// the Beam pipeline through the named registered runner on a fresh
// workload; the reported ns/record metric is the output-topic
// LogAppendTime span divided by the input record count — the per-record
// price of the abstraction layer in each mode. The direct runner is
// excluded: it charges no modeled costs, so its span would be raw
// in-process wall clock — scheduler noise, not an abstraction cost.
func BenchmarkFusionOverhead(b *testing.B) {
	for _, runnerName := range []string{"apex", "flink", "spark"} {
		for _, q := range []queries.Query{queries.Identity, queries.Grep} {
			for _, mode := range []beam.FusionMode{beam.FusionOff, beam.FusionOn} {
				b.Run(fmt.Sprintf("%s/%s/fusion=%s", runnerName, q, mode), func(b *testing.B) {
					runner, err := beam.GetRunner(runnerName)
					if err != nil {
						b.Fatal(err)
					}
					costs := simcost.DefaultCosts()
					var totalSpan float64
					for b.Loop() {
						w, sim := ablationWorkload(b)
						p, err := queries.BeamPipeline(w, q)
						if err != nil {
							b.Fatal(err)
						}
						if _, err := runner.Run(context.Background(), p, beam.Options{
							Fusion: mode,
							Costs:  &costs,
							Sim:    sim,
						}); err != nil {
							b.Fatal(err)
						}
						totalSpan += execSpan(b, w)
					}
					b.ReportMetric(totalSpan/float64(b.N)/float64(benchRecords())*1e9, "ns/record")
				})
			}
		}
	}
}

// --- Ablation benchmarks -------------------------------------------------

// BenchmarkAblationFlinkChaining isolates operator chaining, the
// mechanism Figure 12/13 hinges on: the same native pipeline with
// chaining enabled vs. disabled.
func BenchmarkAblationFlinkChaining(b *testing.B) {
	for _, chained := range []bool{true, false} {
		name := "chained"
		if !chained {
			name = "unchained"
		}
		b.Run(name, func(b *testing.B) {
			var total float64
			for b.Loop() {
				w, sim := ablationWorkload(b)
				cluster, err := flink.NewCluster(flink.ClusterConfig{Costs: simcost.DefaultCosts(), Sim: sim})
				if err != nil {
					b.Fatal(err)
				}
				cluster.Start()
				env := flink.NewEnvironment(cluster)
				if !chained {
					env.DisableOperatorChaining()
				}
				if err := queries.NativeFlink(env, w, queries.Identity); err != nil {
					b.Fatal(err)
				}
				if _, err := env.Execute("ablation"); err != nil {
					b.Fatal(err)
				}
				cluster.Stop()
				total += execSpan(b, w)
			}
			b.ReportMetric(total/float64(b.N), "exec-s/op")
		})
	}
}

// BenchmarkAblationApexEmitMode isolates the buffer-server emit mode
// behind the paper's Apex results: the same native identity application
// with windowed vs. per-tuple publishing on the output stream.
func BenchmarkAblationApexEmitMode(b *testing.B) {
	for _, perTuple := range []bool{false, true} {
		name := "windowed"
		if perTuple {
			name = "pertuple"
		}
		b.Run(name, func(b *testing.B) {
			var total float64
			for b.Loop() {
				w, sim := ablationWorkload(b)
				cluster, err := yarn.NewCluster(yarn.ClusterConfig{})
				if err != nil {
					b.Fatal(err)
				}
				cluster.Start()
				app, err := queries.NativeApex(w, queries.Identity)
				if err != nil {
					b.Fatal(err)
				}
				if perTuple {
					app.SetStreamPerTuple("output", true)
				}
				stram, err := apex.Launch(cluster, app, apex.LaunchConfig{Costs: simcost.DefaultCosts(), Sim: sim})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := stram.Await(); err != nil {
					b.Fatal(err)
				}
				cluster.Stop()
				total += execSpan(b, w)
			}
			b.ReportMetric(total/float64(b.N), "exec-s/op")
		})
	}
}

// BenchmarkAblationSparkBatchSize sweeps the micro-batch size cap,
// showing how batching amortizes Spark's per-batch scheduling overhead.
func BenchmarkAblationSparkBatchSize(b *testing.B) {
	for _, maxRate := range []int{500, 2_000, 10_000} {
		b.Run(fmt.Sprintf("maxPerBatch=%d", maxRate), func(b *testing.B) {
			var total float64
			for b.Loop() {
				w, sim := ablationWorkload(b)
				cluster, err := spark.NewCluster(spark.ClusterConfig{Costs: simcost.DefaultCosts(), Sim: sim})
				if err != nil {
					b.Fatal(err)
				}
				cluster.Start()
				ssc, err := spark.NewStreamingContext(cluster, spark.Config{MaxRatePerPartition: maxRate})
				if err != nil {
					b.Fatal(err)
				}
				if err := queries.NativeSpark(ssc, w, queries.Identity); err != nil {
					b.Fatal(err)
				}
				if _, err := ssc.RunBounded(); err != nil {
					b.Fatal(err)
				}
				cluster.Stop()
				total += execSpan(b, w)
			}
			b.ReportMetric(total/float64(b.N), "exec-s/op")
		})
	}
}

// ablationWorkload builds a fresh preloaded broker for one ablation run.
func ablationWorkload(b *testing.B) (queries.Workload, *simcost.Simulator) {
	b.Helper()
	sim := simcost.New(1.0)
	br := broker.New(broker.WithCosts(simcost.DefaultCosts(), sim))
	for _, topic := range []string{"input", "output"} {
		if err := br.CreateTopic(topic, broker.TopicConfig{Partitions: 1}); err != nil {
			b.Fatal(err)
		}
	}
	gen, err := aol.NewGenerator(aol.Config{Records: benchRecords(), Seed: 42, GrepHits: -1})
	if err != nil {
		b.Fatal(err)
	}
	producer, err := br.NewProducer(broker.ProducerConfig{})
	if err != nil {
		b.Fatal(err)
	}
	for {
		rec, ok := gen.Next()
		if !ok {
			break
		}
		if err := producer.Send("input", nil, rec.AppendTSV(nil)); err != nil {
			b.Fatal(err)
		}
	}
	if err := producer.Close(); err != nil {
		b.Fatal(err)
	}
	return queries.Workload{Broker: br, InputTopic: "input", OutputTopic: "output", Seed: 7}, sim
}

// execSpan returns the output topic's LogAppendTime span in seconds.
func execSpan(b *testing.B, w queries.Workload) float64 {
	b.Helper()
	first, last, n, err := w.Broker.TimeSpan(w.OutputTopic)
	if err != nil {
		b.Fatal(err)
	}
	if n == 0 {
		return 0
	}
	return last.Sub(first).Seconds()
}

// BenchmarkSketchInsert measures the telemetry subsystem's hot path: one
// CKMS sketch insert per op (amortized over the insert buffer), the cost
// every latency observation pays.
func BenchmarkSketchInsert(b *testing.B) {
	s := metrics.MustSketch()
	rng := rand.New(rand.NewPCG(1, 2))
	const mask = 1<<13 - 1
	vals := make([]float64, mask+1)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		s.Insert(vals[i&mask])
		i++
	}
	if s.Count() != int64(b.N) {
		b.Fatalf("sketch lost observations: %d != %d", s.Count(), b.N)
	}
}

// BenchmarkInstrumentationOverhead runs the identity query with the
// telemetry subsystem off, on, and on-while-scraped; the per-op delta
// against "off" is the full cost of collection (per-stage throughput
// marking in the engine hot path plus the per-record latency pairing
// in result calculation). The budget is <5% for metrics=on and <2% of
// additional wall time for metrics=serve, where the live telemetry
// plane is attached and a background scraper hammers /metrics and
// /snapshot for the whole measurement — the pull-based snapshot path
// must stay off the hot path.
func BenchmarkInstrumentationOverhead(b *testing.B) {
	for _, api := range []harness.API{harness.APINative, harness.APIBeam} {
		for _, mode := range []string{"off", "on", "serve"} {
			b.Run(fmt.Sprintf("%s/metrics=%s", api, mode), func(b *testing.B) {
				cfg := harness.Config{
					Records:        benchRecords(),
					Runs:           1,
					DisableNoise:   true,
					CollectMetrics: mode != "off",
				}
				if mode == "serve" {
					cfg.Plane = obs.NewPlane(cfg.Records, 1)
				}
				r, err := harness.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if mode == "serve" {
					srv, err := cfg.Plane.Serve("127.0.0.1:0")
					if err != nil {
						b.Fatal(err)
					}
					defer srv.Close()
					stop := make(chan struct{})
					var wg sync.WaitGroup
					wg.Add(1)
					go func() {
						defer wg.Done()
						tr := &http.Transport{}
						defer tr.CloseIdleConnections()
						client := &http.Client{Transport: tr, Timeout: 5 * time.Second}
						for {
							select {
							case <-stop:
								return
							default:
							}
							for _, path := range []string{"/metrics", "/snapshot"} {
								resp, err := client.Get(srv.URL() + path)
								if err != nil {
									return
								}
								_, _ = io.Copy(io.Discard, resp.Body)
								resp.Body.Close()
							}
						}
					}()
					defer wg.Wait()
					defer close(stop)
				}
				setup := harness.Setup{
					System: harness.SystemFlink, API: api,
					Query: queries.Identity, Parallelism: 1,
				}
				benchSetup(b, r, setup)
			})
		}
	}
}

// BenchmarkTraceOverhead runs the identity query with run-level tracing
// off and on; the per-op delta between the two sub-benchmarks is the
// full cost of the observability subsystem (spans in the engine
// subtask/partition paths, watermark gauges, and the lag monitor's
// sampling ticker). The budget is <5% on this query, matching
// BenchmarkInstrumentationOverhead's budget for the metrics subsystem.
func BenchmarkTraceOverhead(b *testing.B) {
	for _, api := range []harness.API{harness.APINative, harness.APIBeam} {
		for _, traced := range []bool{false, true} {
			mode := "off"
			if traced {
				mode = "on"
			}
			b.Run(fmt.Sprintf("%s/trace=%s", api, mode), func(b *testing.B) {
				cfg := harness.Config{
					Records:      benchRecords(),
					Runs:         1,
					DisableNoise: true,
				}
				if traced {
					cfg.Trace = obs.NewTracer(1 << 18)
				}
				r, err := harness.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				setup := harness.Setup{
					System: harness.SystemFlink, API: api,
					Query: queries.Identity, Parallelism: 1,
				}
				benchSetup(b, r, setup)
			})
		}
	}
}
