// Package sparkrunner translates Beam pipelines into micro-batch
// applications on the Spark Streaming simulator. Its behaviour mirrors
// the runner characteristics the paper measures:
//
//   - every ParDo becomes its own per-element stage inside each batch,
//     paying DoFn dispatch and coder encode/decode per record (paper
//     Figure 11: 3-7x slowdown on Spark);
//   - with parallelism above one the runner inserts a redistribution
//     shuffle sized by spark.default.parallelism, which is why the paper
//     observes Beam-on-Spark running ~70-85% slower at parallelism 2 for
//     cheap queries (Figures 6 and 9);
//   - GroupByKey translates to the engine's keyed micro-batch state path
//     (a keyed shuffle reuniting each key's records, then a persistent
//     stateful stage running the shared graphx.GBKState executable with
//     watermark-driven pane firing at batch boundaries). The paper-era
//     capability-matrix rejection — ErrStatefulUnsupported — is lifted;
//     what remains unsupported is non-global windowing without an
//     element-derived event-time extractor, which no runner can
//     translate deterministically;
//   - forcing the shared fusion optimizer (beam.FusionOn) collapses the
//     ParDo chain into one per-batch stage, removing the intermediate
//     coder round trips.
package sparkrunner

import (
	"context"
	"errors"
	"fmt"
	"time"

	"beambench/internal/beam"
	"beambench/internal/beam/graphx"
	"beambench/internal/spark"
	"beambench/internal/watermark"
)

// Name is the runner's registry name.
const Name = "spark"

func init() {
	beam.RegisterRunner(Name, Runner{})
}

// ErrUnsupported marks transforms this runner cannot translate. It
// wraps the shared beam.ErrUnsupported sentinel, so callers can match
// capability gaps without naming the runner.
var ErrUnsupported = fmt.Errorf("sparkrunner: %w", beam.ErrUnsupported)

// Config parameterizes a pipeline execution.
type Config struct {
	// Cluster is the target Spark cluster.
	Cluster *spark.Cluster
	// Parallelism is spark.default.parallelism (the paper's knob).
	// Defaults to 1.
	Parallelism int
	// MaxRatePerPartition caps batch sizes; 0 keeps the engine default.
	MaxRatePerPartition int
	// Fusion selects the translation mode. The Spark runner's default
	// is unfused — one per-element stage per Beam primitive inside each
	// micro-batch, the behaviour behind the paper's 3-7x slowdowns.
	Fusion beam.FusionMode
	// TargetRecords bounds every KafkaRead by the total record count the
	// topic will eventually hold (see beam.Options.TargetRecords); 0
	// snapshots the topic contents at the first batch.
	TargetRecords int64
}

// Result is the execution summary.
type Result struct {
	Metrics spark.StreamingMetrics

	operators int
}

// Runner implements beam.Runner: it builds a fresh Spark cluster from
// the options, translates, runs bounded and tears the cluster down.
type Runner struct{}

// Run implements beam.Runner.
func (Runner) Run(ctx context.Context, p *beam.Pipeline, opts beam.Options) (beam.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cluster, err := spark.NewCluster(spark.ClusterConfig{Costs: opts.EffectiveCosts(), Sim: opts.Sim, Metrics: opts.Metrics, Trace: opts.Trace})
	if err != nil {
		return nil, err
	}
	cluster.Start()
	defer cluster.Stop()
	res, err := Run(p, Config{
		Cluster:             cluster,
		Parallelism:         opts.EffectiveParallelism(),
		MaxRatePerPartition: opts.MaxRatePerPartition,
		Fusion:              opts.Fusion,
		TargetRecords:       opts.TargetRecords,
	})
	if err != nil {
		return nil, err
	}
	return registryResult{res: res}, nil
}

// OperatorCount reports the engine operators (stream stages and output
// operations) the translation registered.
func (r *Result) OperatorCount() int { return r.operators }

// registryResult adapts Result to beam.Result (whose Metrics method
// would clash with the exported Metrics field).
type registryResult struct{ res *Result }

func (r registryResult) Elements(beam.PCollection) []any { return nil }

func (r registryResult) OperatorCount() int { return r.res.operators }

func (r registryResult) Metrics() map[string]int64 {
	return map[string]int64{
		"Batches":    r.res.Metrics.Batches,
		"RecordsIn":  r.res.Metrics.RecordsIn,
		"RecordsOut": r.res.Metrics.RecordsOut,
	}
}

// Run translates and executes the pipeline, blocking until the bounded
// input drains.
func Run(p *beam.Pipeline, cfg Config) (*Result, error) {
	ssc, opCount, err := translate(p, cfg)
	if err != nil {
		return nil, err
	}
	metrics, err := ssc.RunBounded()
	if err != nil {
		return nil, err
	}
	return &Result{Metrics: metrics, operators: opCount}, nil
}

// Translate builds the streaming application without running it.
func Translate(p *beam.Pipeline, cfg Config) (*spark.StreamingContext, error) {
	ssc, _, err := translate(p, cfg)
	return ssc, err
}

// translate builds the application and reports how many engine
// operators (DStream stages plus output operations) it registered.
func translate(p *beam.Pipeline, cfg Config) (*spark.StreamingContext, int, error) {
	if cfg.Cluster == nil {
		return nil, 0, errors.New("sparkrunner: nil cluster")
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = 1
	}
	if cfg.Parallelism < 0 {
		return nil, 0, fmt.Errorf("sparkrunner: negative parallelism %d", cfg.Parallelism)
	}
	plan, err := graphx.Lower(p, graphx.Options{Fusion: cfg.Fusion.Enabled(false)})
	if err != nil {
		return nil, 0, graphx.Unsupported(ErrUnsupported, err)
	}
	ssc, err := spark.NewStreamingContext(cfg.Cluster, spark.Config{
		DefaultParallelism:  cfg.Parallelism,
		MaxRatePerPartition: cfg.MaxRatePerPartition,
	})
	if err != nil {
		return nil, 0, err
	}
	costs := cfg.Cluster.Costs()

	// Every stage body is the shared executable (graphx.Executable) with
	// a different entry and exit, bound per task; what is Spark's here is
	// the redistribution, the partition bookkeeping and the operator
	// count.
	streams := make(map[int]*spark.DStream)
	in := func(s *graphx.Stage) *spark.DStream { return streams[s.Inputs()[0].ID()] }
	// multiPart tracks which translated streams can hold more than one
	// RDD partition per batch (a multi-partition topic, a default
	// redistribution, or a union laying branch partitions side by side).
	// A GroupByKey consuming such a stream needs a keyed shuffle even at
	// parallelism 1, or a key's records never meet in one partition.
	multiPart := make(map[int]bool)
	opCount := 0
	for _, s := range plan.Stages {
		x := graphx.Executable{Name: s.Name(), Costs: costs}
		switch s.Kind() {
		case beam.KindKafkaRead:
			rc := s.KafkaRead()
			x.Wrap, x.Encode = rc.Topic, s.Output().Coder()
			ds := ssc.KafkaDirectStream(rc.Broker, rc.Topic, cfg.TargetRecords).
				Transform(stage(x)).
				Named("KafkaIO.Read " + rc.Topic)
			opCount += 2 // direct stream + read adapter
			// The runner redistributes to spark.default.parallelism —
			// the splitting overhead the paper observes at P2.
			if cfg.Parallelism > 1 {
				ds = ds.RepartitionDefault()
				opCount++
			}
			streams[s.Output().ID()] = ds
			nParts, err := rc.Broker.Partitions(rc.Topic)
			if err != nil {
				return nil, 0, fmt.Errorf("sparkrunner: KafkaRead: %w", err)
			}
			multiPart[s.Output().ID()] = nParts > 1 || cfg.Parallelism > 1

		case beam.KindCreate:
			encoded, err := graphx.EncodeAll(s.CreateValues(), s.Output().Coder())
			if err != nil {
				return nil, 0, fmt.Errorf("sparkrunner: Create: %w", err)
			}
			streams[s.Output().ID()] = ssc.SliceStream(encoded, 0)
			opCount++

		case beam.KindParDo:
			// A fused stage runs its whole DoFn chain inside one
			// per-batch stage: one decode, in-memory hops, one encode.
			x.Fn, x.Decode, x.Encode = s.Fn(), s.Inputs()[0].Coder(), s.Output().Coder()
			streams[s.Output().ID()] = in(s).Transform(stage(x)).Named(s.Name())
			multiPart[s.Output().ID()] = multiPart[s.Inputs()[0].ID()]
			opCount++

		case beam.KindKafkaWrite:
			wc := s.KafkaWrite()
			x.Decode = s.Inputs()[0].Coder()
			in(s).Transform(stage(x)).
				Named("KafkaIO.Write "+wc.Topic+" serializer").
				SaveToKafka("KafkaIO.Write "+wc.Topic, wc.Broker, wc.Topic, wc.Producer)
			opCount += 2 // write serializer + sink

		case beam.KindWindowInto:
			ws := s.WindowInto()
			multiPart[s.Output().ID()] = multiPart[s.Inputs()[0].ID()]
			opCount++
			if ws.IsGlobal() {
				// Global re-windowing only carries strategy metadata
				// (consumed by the downstream GroupByKey); at runtime it
				// forwards records.
				streams[s.Output().ID()] = in(s).Transform(stage(x)).Named(s.Name())
				break
			}
			// The lineage's timestamp assigner: the scheduler delivers the
			// minimum over its per-partition watermark generators to
			// downstream stateful stages at every batch boundary.
			eventTime, err := s.EventTime()
			if err != nil {
				return nil, 0, graphx.Unsupported(ErrUnsupported, err)
			}
			streams[s.Output().ID()] = in(s).AssignTimestampsBounded(eventTime, ws.Bound).Named(s.Name())

		case beam.KindFlatten:
			rest := make([]*spark.DStream, 0, len(s.Inputs())-1)
			for _, col := range s.Inputs()[1:] {
				rest = append(rest, streams[col.ID()])
			}
			// Flatten is the engine's union: per batch the output stage
			// concatenates its parents' partitions, and the lineage
			// watermark downstream is the minimum over every branch's
			// assigners.
			streams[s.Output().ID()] = in(s).Union(rest...).Named(s.Name())
			multiPart[s.Output().ID()] = true
			opCount++

		case beam.KindGroupByKey:
			newGBK, err := s.GBK(costs, cfg.Cluster.Trace())
			if err != nil {
				return nil, 0, graphx.Unsupported(ErrUnsupported, err)
			}
			// The engine's micro-batch state path: with parallelism above
			// one the upstream redistribution scattered each key's
			// records round-robin, so a keyed shuffle reunites them
			// first; the stateful stage then runs the shared GroupByKey
			// executable per partition, firing watermark-ready panes at
			// batch boundaries and flushing on end of input.
			keyed := in(s)
			if cfg.Parallelism > 1 || multiPart[s.Inputs()[0].ID()] {
				keyed = keyed.RepartitionByKey(cfg.Parallelism, graphx.EncodedKVKey)
				opCount++
			}
			streams[s.Output().ID()] = keyed.Stateful("GroupByKey", func(_ int, charge func(time.Duration)) (watermark.Operator, error) {
				return newGBK(charge)
			})
			multiPart[s.Output().ID()] = cfg.Parallelism > 1
			opCount++
		}
	}
	return ssc, opCount, nil
}

// stage deploys the shared executable as one narrow stage: the
// engine's per-task hook has the executable's shape, so binding it to
// the task's charge is the whole adapter. A Setup or record failure
// fails the task, the batch and the run.
func stage(x graphx.Executable) func(spark.TaskContext) (func([]byte, func([]byte) error) error, error) {
	return func(task spark.TaskContext) (func([]byte, func([]byte) error) error, error) {
		return x.Bind(task.Charge)
	}
}
