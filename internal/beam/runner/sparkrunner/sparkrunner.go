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
	"beambench/internal/simcost"
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
		return nil, 0, err
	}
	ssc, err := spark.NewStreamingContext(cfg.Cluster, spark.Config{
		DefaultParallelism:  cfg.Parallelism,
		MaxRatePerPartition: cfg.MaxRatePerPartition,
	})
	if err != nil {
		return nil, 0, err
	}
	costs := cfg.Cluster.Costs()

	streams := make(map[int]*spark.DStream)
	// multiPart tracks which translated streams can hold more than one
	// RDD partition per batch (a multi-partition topic, a default
	// redistribution, or a union laying branch partitions side by side).
	// A GroupByKey consuming such a stream needs a keyed shuffle even at
	// parallelism 1, or a key's records never meet in one partition.
	multiPart := make(map[int]bool)
	opCount := 0
	for _, s := range plan.Stages {
		t := s.Transforms[0]
		switch s.Kind() {
		case beam.KindKafkaRead:
			rc, ok := t.Config.(beam.KafkaReadConfig)
			if !ok {
				return nil, 0, errors.New("sparkrunner: malformed KafkaRead config")
			}
			ds := ssc.KafkaDirectStream(rc.Broker, rc.Topic, cfg.TargetRecords).
				Transform(readAdapter(rc.Topic, t.Output.Coder(), costs)).
				Named("KafkaIO.Read " + rc.Topic)
			opCount += 2 // direct stream + read adapter
			// The runner redistributes to spark.default.parallelism —
			// the splitting overhead the paper observes at P2.
			if cfg.Parallelism > 1 {
				ds = ds.RepartitionDefault()
				opCount++
			}
			streams[t.Output.ID()] = ds
			nParts, err := rc.Broker.Partitions(rc.Topic)
			if err != nil {
				return nil, 0, fmt.Errorf("sparkrunner: KafkaRead: %w", err)
			}
			multiPart[t.Output.ID()] = nParts > 1 || cfg.Parallelism > 1

		case beam.KindCreate:
			values, ok := t.Config.([]any)
			if !ok {
				return nil, 0, errors.New("sparkrunner: malformed Create config")
			}
			encoded, err := graphx.EncodeAll(values, t.Output.Coder())
			if err != nil {
				return nil, 0, fmt.Errorf("sparkrunner: Create: %w", err)
			}
			streams[t.Output.ID()] = ssc.SliceStream(encoded, 0)
			opCount++

		case beam.KindParDo:
			in, ok := streams[s.Inputs()[0].ID()]
			if !ok {
				return nil, 0, fmt.Errorf("sparkrunner: ParDo %q consumes untranslated collection", s.Name())
			}
			// A fused stage runs its whole DoFn chain inside one
			// per-batch stage: one decode, in-memory hops, one encode.
			streams[s.Output().ID()] = in.TransformE(
				parDoStage(s.Name(), s.Fn(), s.Inputs()[0].Coder(), s.Output().Coder(), costs)).
				Named(s.Name())
			multiPart[s.Output().ID()] = multiPart[s.Inputs()[0].ID()]
			opCount++

		case beam.KindKafkaWrite:
			wc, ok := t.Config.(beam.KafkaWriteConfig)
			if !ok {
				return nil, 0, errors.New("sparkrunner: malformed KafkaWrite config")
			}
			in, ok := streams[t.Inputs[0].ID()]
			if !ok {
				return nil, 0, errors.New("sparkrunner: KafkaWrite consumes untranslated collection")
			}
			in.Transform(writeSerializer(t.Inputs[0].Coder(), costs)).
				Named("KafkaIO.Write "+wc.Topic+" serializer").
				SaveToKafka("KafkaIO.Write "+wc.Topic, wc.Broker, wc.Topic, wc.Producer)
			opCount += 2 // write serializer + sink

		case beam.KindWindowInto:
			ws, ok := t.Config.(beam.WindowingStrategy)
			if !ok {
				return nil, 0, errors.New("sparkrunner: malformed WindowInto config")
			}
			in, ok := streams[t.Inputs[0].ID()]
			if !ok {
				return nil, 0, errors.New("sparkrunner: WindowInto consumes untranslated collection")
			}
			if ws.IsGlobal() {
				// Global re-windowing only carries strategy metadata
				// (consumed by the downstream GroupByKey); at runtime it
				// forwards records.
				streams[t.Output.ID()] = in.Transform(func(task spark.TaskContext) func([]byte, func([]byte)) {
					return func(rec []byte, emit func([]byte)) {
						task.Charge(costs.BeamDoFnPerRecord)
						emit(rec)
					}
				}).Named(s.Name())
				multiPart[t.Output.ID()] = multiPart[t.Inputs[0].ID()]
				opCount++
				break
			}
			if ws.EventTime == nil {
				return nil, 0, fmt.Errorf("%w: non-global windowing (%s) without an event-time extractor",
					ErrUnsupported, ws.Fn.Name())
			}
			// Event-time windowing becomes the lineage's timestamp
			// assigner: per-partition watermark generators observe the
			// element-derived event times, and the scheduler delivers
			// their minimum to downstream stateful stages at every batch
			// boundary. Window assignment itself stays in the strategy
			// metadata the GroupByKey consumes.
			coder := t.Inputs[0].Coder()
			streams[t.Output.ID()] = in.AssignTimestampsBounded(func(rec []byte) (time.Time, error) {
				elem, err := coder.Decode(rec)
				if err != nil {
					return time.Time{}, fmt.Errorf("sparkrunner: WindowInto decode: %w", err)
				}
				return ws.EventTime(elem)
			}, ws.Bound).Named(s.Name())
			multiPart[t.Output.ID()] = multiPart[t.Inputs[0].ID()]
			opCount++

		case beam.KindFlatten:
			ins := make([]*spark.DStream, len(t.Inputs))
			for i, col := range t.Inputs {
				in, ok := streams[col.ID()]
				if !ok {
					return nil, 0, errors.New("sparkrunner: Flatten consumes untranslated collection")
				}
				ins[i] = in
			}
			// Flatten is the engine's union: per batch the output stage
			// concatenates its parents' partitions, and the lineage
			// watermark downstream is the minimum over every branch's
			// assigners.
			streams[t.Output.ID()] = ins[0].Union(ins[1:]...).Named(s.Name())
			multiPart[t.Output.ID()] = true
			opCount++

		case beam.KindGroupByKey:
			in, ok := streams[t.Inputs[0].ID()]
			if !ok {
				return nil, 0, errors.New("sparkrunner: GroupByKey consumes untranslated collection")
			}
			kvCoder, ok := t.Inputs[0].Coder().(beam.KVCoder)
			if !ok {
				return nil, 0, fmt.Errorf("%w: GroupByKey over coder %s", ErrUnsupported, t.Inputs[0].Coder().Name())
			}
			gbkCfg := graphx.GBKConfig{
				Windowing: t.Inputs[0].Windowing(),
				Input:     kvCoder,
				Output:    t.Output.Coder(),
				Costs:     costs,
				Trace:     cfg.Cluster.Trace(),
			}
			if _, err := graphx.NewGBKState(gbkCfg); err != nil {
				if errors.Is(err, beam.ErrUnsupported) {
					return nil, 0, fmt.Errorf("%w: %v", ErrUnsupported, err)
				}
				return nil, 0, fmt.Errorf("sparkrunner: %w", err)
			}
			// The engine's micro-batch state path: with parallelism above
			// one the upstream redistribution scattered each key's
			// records round-robin, so a keyed shuffle reunites them
			// first; the stateful stage then runs the shared GroupByKey
			// executable per partition, firing watermark-ready panes at
			// batch boundaries and flushing on end of input.
			if cfg.Parallelism > 1 || multiPart[t.Inputs[0].ID()] {
				in = in.RepartitionByKey(cfg.Parallelism, graphx.EncodedKVKey)
				opCount++
			}
			streams[t.Output.ID()] = in.Stateful("GroupByKey", func(_ int, charge func(time.Duration)) (watermark.Operator, error) {
				cfg := gbkCfg
				cfg.Charge = charge
				return graphx.NewGBKState(cfg)
			})
			multiPart[t.Output.ID()] = cfg.Parallelism > 1
			opCount++

		default:
			return nil, 0, fmt.Errorf("%w: %v (%s)", ErrUnsupported, s.Kind(), s.Name())
		}
	}
	return ssc, opCount, nil
}

// readAdapter wraps raw payloads into encoded KafkaRecord elements.
func readAdapter(topic string, coder beam.Coder, costs simcost.Costs) func(spark.TaskContext) func([]byte, func([]byte)) {
	return func(task spark.TaskContext) func([]byte, func([]byte)) {
		return func(rec []byte, emit func([]byte)) {
			task.Charge(costs.BeamDoFnPerRecord)
			wire, err := coder.Encode(beam.KafkaRecord{Topic: topic, Value: rec})
			if err != nil {
				return // malformed records are dropped, like a failed coder in a bundle retry
			}
			task.Charge(costs.CoderPerRecord)
			emit(wire)
		}
	}
}

// parDoStage invokes the DoFn per element inside each micro-batch task.
// A Setup failure fails the task (and the run) instead of processing
// records through an un-initialized DoFn.
func parDoStage(name string, fn beam.DoFn, inCoder, outCoder beam.Coder, costs simcost.Costs) func(spark.TaskContext) (func([]byte, func([]byte)), error) {
	return func(task spark.TaskContext) (func([]byte, func([]byte)), error) {
		if s, ok := fn.(beam.Setupper); ok {
			if err := s.Setup(); err != nil {
				return nil, fmt.Errorf("sparkrunner: stage %q setup: %w", name, err)
			}
		}
		return func(rec []byte, emit func([]byte)) {
			elem, err := inCoder.Decode(rec)
			if err != nil {
				return
			}
			task.Charge(costs.CoderPerRecord)
			task.Charge(costs.BeamDoFnPerRecord)
			bctx := beam.Context{Window: beam.GlobalWindow{}}
			// The emitter closure adapts the Beam SDK contract to the
			// engine collector: it is the SDK-harness hop whose cost the
			// benchmark quantifies.
			//beamvet:allow hotalloc the emitter adapter is the SDK-to-engine hop under measurement
			_ = fn.ProcessElement(bctx, elem, func(emitted any) error {
				wire, err := outCoder.Encode(emitted)
				if err != nil {
					return err
				}
				task.Charge(costs.CoderPerRecord)
				emit(wire)
				return nil
			})
		}, nil
	}
}

// writeSerializer decodes final elements back to raw bytes for the sink.
func writeSerializer(inCoder beam.Coder, costs simcost.Costs) func(spark.TaskContext) func([]byte, func([]byte)) {
	return func(task spark.TaskContext) func([]byte, func([]byte)) {
		return func(rec []byte, emit func([]byte)) {
			elem, err := inCoder.Decode(rec)
			if err != nil {
				return
			}
			task.Charge(costs.CoderPerRecord)
			if payload, ok := elem.([]byte); ok {
				task.Charge(costs.BeamDoFnPerRecord)
				emit(payload)
			}
		}
	}
}
