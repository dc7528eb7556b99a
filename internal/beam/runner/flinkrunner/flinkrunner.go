// Package flinkrunner translates Beam pipelines into jobs on the Flink
// engine simulator, reproducing the translation behaviour Hesse et al.
// observe in Figure 13 (ICDCS 2019): every Beam primitive becomes its
// own Flink operator, operator chaining is disabled, elements cross
// every operator boundary through a coder encode/decode pair, and the
// KafkaIO read expands into a raw source plus a flat-map step. A native
// three-operator grep job therefore becomes a seven-operator Beam job —
// the structural source of the measured slowdown.
//
// Forcing the shared fusion optimizer (beam.FusionOn) collapses the
// ParDo chain into a single ExecutableStage operator, removing the
// intermediate coder boundaries and making the closed gap measurable.
package flinkrunner

import (
	"context"
	"errors"
	"fmt"

	"beambench/internal/beam"
	"beambench/internal/beam/graphx"
	"beambench/internal/flink"
	"beambench/internal/simcost"
	"beambench/internal/watermark"
)

// Name is the runner's registry name.
const Name = "flink"

func init() {
	beam.RegisterRunner(Name, Runner{})
}

// ErrUnsupported marks transforms this runner cannot translate. It
// wraps the shared beam.ErrUnsupported sentinel, so callers can match
// capability gaps without naming the runner.
var ErrUnsupported = fmt.Errorf("flinkrunner: %w", beam.ErrUnsupported)

// Plan-node names as they appear in the Beam-on-Flink execution plan
// (paper Figure 13).
const (
	// NameRawSource is the KafkaIO source's plan label.
	NameRawSource = "PTransformTranslation.UnknownRawPTransform"
	// NameReadFlatMap is the read-expansion flat map's plan label.
	NameReadFlatMap = "Flat Map"
	// NameRawParDo is the label of every translated ParDo.
	NameRawParDo = "ParDoTranslation.RawParDo"
	// NameExecutableStage labels a fused ParDo chain when the shared
	// fusion optimizer is forced on (beam.FusionOn).
	NameExecutableStage = "ExecutableStage"
)

// Config parameterizes a pipeline execution.
type Config struct {
	// Cluster is the target Flink cluster.
	Cluster *flink.Cluster
	// Parallelism is the job parallelism (the paper's -p flag).
	// Defaults to 1.
	Parallelism int
	// Fusion selects the translation mode. The Flink runner's default
	// is unfused — one engine operator per Beam primitive, the paper's
	// Figure 13 behaviour.
	Fusion beam.FusionMode
	// TargetRecords bounds every KafkaRead by the total record count the
	// topic will eventually hold (see beam.Options.TargetRecords); 0
	// snapshots the topic contents at source start.
	TargetRecords int64
}

// Runner implements beam.Runner: it builds a fresh Flink cluster from
// the options, translates, executes and tears the cluster down.
type Runner struct{}

// Run implements beam.Runner.
func (Runner) Run(ctx context.Context, p *beam.Pipeline, opts beam.Options) (beam.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cluster, err := flink.NewCluster(flink.ClusterConfig{Costs: opts.EffectiveCosts(), Sim: opts.Sim, Metrics: opts.Metrics, Trace: opts.Trace})
	if err != nil {
		return nil, err
	}
	cluster.Start()
	defer cluster.Stop()
	res, err := Run(p, Config{
		Cluster:       cluster,
		Parallelism:   opts.EffectiveParallelism(),
		Fusion:        opts.Fusion,
		TargetRecords: opts.TargetRecords,
	})
	if err != nil {
		return nil, err
	}
	return &result{job: res}, nil
}

// result adapts a flink.JobResult to beam.Result.
type result struct {
	job *flink.JobResult
}

func (r *result) Elements(beam.PCollection) []any { return nil }

func (r *result) OperatorCount() int { return len(r.job.Operators) }

func (r *result) Metrics() map[string]int64 {
	out := make(map[string]int64, len(r.job.Operators))
	for _, s := range r.job.Operators {
		out[s.Name] += s.RecordsOut
	}
	return out
}

// Run translates and executes the pipeline, blocking until completion.
func Run(p *beam.Pipeline, cfg Config) (*flink.JobResult, error) {
	env, jobName, err := Translate(p, cfg)
	if err != nil {
		return nil, err
	}
	return env.Execute(jobName)
}

// Translate builds the Flink job for a pipeline without executing it,
// so callers can also inspect the execution plan (Figure 13).
func Translate(p *beam.Pipeline, cfg Config) (*flink.Environment, string, error) {
	if cfg.Cluster == nil {
		return nil, "", errors.New("flinkrunner: nil cluster")
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = 1
	}
	if cfg.Parallelism < 0 {
		return nil, "", fmt.Errorf("flinkrunner: negative parallelism %d", cfg.Parallelism)
	}
	plan, err := graphx.Lower(p, graphx.Options{Fusion: cfg.Fusion.Enabled(false)})
	if err != nil {
		return nil, "", err
	}

	costs := cfg.Cluster.Costs()
	env := flink.NewEnvironment(cfg.Cluster).
		SetParallelism(cfg.Parallelism).
		DisableOperatorChaining() // the runner emits unchained per-stage operators

	streams := make(map[int]*flink.DataStream)
	jobName := "beam"
	for _, s := range plan.Stages {
		t := s.Transforms[0]
		switch s.Kind() {
		case beam.KindKafkaRead:
			rc, ok := t.Config.(beam.KafkaReadConfig)
			if !ok {
				return nil, "", fmt.Errorf("flinkrunner: malformed KafkaRead config")
			}
			// The read expands to a raw source plus a flat map
			// wrapping broker payloads into encoded KafkaRecords.
			src := env.AddSource(NameRawSource, flink.KafkaSource(rc.Broker, rc.Topic, cfg.TargetRecords))
			out := src.Process(NameReadFlatMap, readFlatMap(rc.Topic, t.Output.Coder(), costs))
			streams[t.Output.ID()] = out
			jobName = "beam-" + rc.Topic

		case beam.KindCreate:
			values, ok := t.Config.([]any)
			if !ok {
				return nil, "", fmt.Errorf("flinkrunner: malformed Create config")
			}
			encoded, err := graphx.EncodeAll(values, t.Output.Coder())
			if err != nil {
				return nil, "", fmt.Errorf("flinkrunner: Create: %w", err)
			}
			streams[t.Output.ID()] = env.AddSource(NameRawSource, flink.SliceSource(encoded))

		case beam.KindParDo:
			in, ok := streams[s.Inputs()[0].ID()]
			if !ok {
				return nil, "", fmt.Errorf("flinkrunner: ParDo %q consumes untranslated collection", s.Name())
			}
			// A fused stage is one engine operator: a single decode on
			// entry, the whole DoFn chain in memory, a single encode on
			// exit — the coder boundaries between the fused ParDos are
			// gone, which is what fusion buys on Flink.
			name := NameRawParDo
			if s.Fused() {
				name = NameExecutableStage
			}
			streams[s.Output().ID()] = in.Process(name,
				parDoProcess(s.Fn(), s.Inputs()[0].Coder(), s.Output().Coder(), costs))

		case beam.KindKafkaWrite:
			wc, ok := t.Config.(beam.KafkaWriteConfig)
			if !ok {
				return nil, "", fmt.Errorf("flinkrunner: malformed KafkaWrite config")
			}
			in, ok := streams[t.Inputs[0].ID()]
			if !ok {
				return nil, "", fmt.Errorf("flinkrunner: KafkaWrite consumes untranslated collection")
			}
			// Write expands to a serializing ParDo plus the sink.
			serialized := in.Process(NameRawParDo, writeSerializer(t.Inputs[0].Coder(), costs))
			serialized.AddSink("KafkaIO.Write "+wc.Topic, flink.KafkaSink(wc.Broker, wc.Topic, wc.Producer))

		case beam.KindWindowInto:
			ws, ok := t.Config.(beam.WindowingStrategy)
			if !ok {
				return nil, "", fmt.Errorf("flinkrunner: malformed WindowInto config")
			}
			in, ok := streams[t.Inputs[0].ID()]
			if !ok {
				return nil, "", fmt.Errorf("flinkrunner: WindowInto consumes untranslated collection")
			}
			if ws.IsGlobal() {
				// Global re-windowing carries only strategy metadata; at
				// runtime it is a forwarding operator.
				streams[t.Output.ID()] = in.Process(NameRawParDo, forwardProcess(costs))
				break
			}
			if ws.EventTime == nil {
				// Coder boundaries erase flow timestamps, so non-global
				// windowing is translatable only when event time derives
				// from the element itself.
				return nil, "", fmt.Errorf("%w: non-global windowing (%s) without an event-time extractor",
					ErrUnsupported, ws.Fn.Name())
			}
			// Event-time windowing is where event time enters the
			// dataflow: the transform becomes the engine's timestamp
			// assigner, stamping watermark control events that the runtime
			// threads through every downstream operator (min-over-senders)
			// to the GroupByKey panes. Window assignment itself stays in
			// the strategy metadata the GroupByKey consumes.
			streams[t.Output.ID()] = in.AssignTimestamps(NameRawParDo,
				windowAssigner(ws, t.Inputs[0].Coder(), costs))

		case beam.KindFlatten:
			ins := make([]*flink.DataStream, len(t.Inputs))
			for i, col := range t.Inputs {
				in, ok := streams[col.ID()]
				if !ok {
					return nil, "", fmt.Errorf("flinkrunner: Flatten consumes untranslated collection")
				}
				ins[i] = in
			}
			// Flatten is the engine's union: a multi-input merge whose
			// output watermark the runtime holds at the minimum over all
			// inputs, so a lagging branch holds back downstream panes.
			streams[t.Output.ID()] = ins[0].Union("Flatten", ins[1:]...)

		case beam.KindGroupByKey:
			in, ok := streams[t.Inputs[0].ID()]
			if !ok {
				return nil, "", fmt.Errorf("flinkrunner: GroupByKey consumes untranslated collection")
			}
			kvCoder, ok := t.Inputs[0].Coder().(beam.KVCoder)
			if !ok {
				return nil, "", fmt.Errorf("%w: GroupByKey over coder %s", ErrUnsupported, t.Inputs[0].Coder().Name())
			}
			// Hash-partition by key so equal keys meet in one subtask
			// (Flink supports the stateful side of the capability
			// matrix), then run the shared GroupByKey executable with
			// end-of-input flush. Event-time windows fire tuple-at-a-time
			// as the subtask watermark advances; global windows fire on
			// the count trigger and at flush.
			// The shared executable generates no watermark of its own:
			// panes fire off the control-event watermark the runtime
			// propagates from the upstream WindowInto assigner, combined
			// min-over-senders at every merge — sound at any parallelism
			// without a conservative fallback.
			gbkCfg := graphx.GBKConfig{
				Windowing: t.Inputs[0].Windowing(),
				Input:     kvCoder,
				Output:    t.Output.Coder(),
				Costs:     costs,
				Trace:     cfg.Cluster.Trace(),
			}
			if _, err := graphx.NewGBKState(gbkCfg); err != nil {
				if errors.Is(err, beam.ErrUnsupported) {
					return nil, "", fmt.Errorf("%w: %v", ErrUnsupported, err)
				}
				return nil, "", fmt.Errorf("flinkrunner: %w", err)
			}
			keyed := in.KeyBy(graphx.EncodedKVKey)
			streams[t.Output.ID()] = keyed.KeyedProcess("GroupByKey", func(ctx flink.OperatorContext) (watermark.Operator, error) {
				cfg := gbkCfg
				cfg.Charge = ctx.Charge
				return graphx.NewGBKState(cfg)
			})

		default:
			return nil, "", fmt.Errorf("%w: %v (%s)", ErrUnsupported, s.Kind(), s.Name())
		}
	}
	return env, jobName, nil
}

// readFlatMap wraps raw broker payloads into KafkaRecord elements and
// encodes them for the first operator boundary.
func readFlatMap(topic string, coder beam.Coder, costs simcost.Costs) flink.ProcessFactory {
	return func(ctx flink.OperatorContext) (flink.ProcessFunc, error) {
		return func(rec []byte, out flink.Collector) error {
			ctx.Charge(costs.BeamDoFnPerRecord)
			elem := beam.KafkaRecord{Topic: topic, Value: rec}
			wire, err := coder.Encode(elem)
			if err != nil {
				return fmt.Errorf("flinkrunner: read encode: %w", err)
			}
			ctx.Charge(costs.CoderPerRecord)
			return out.Collect(wire)
		}, nil
	}
}

// parDoProcess invokes the DoFn between a decode and an encode, the
// per-boundary coder work the paper attributes the Flink overhead to.
func parDoProcess(fn beam.DoFn, inCoder, outCoder beam.Coder, costs simcost.Costs) flink.ProcessFactory {
	return func(ctx flink.OperatorContext) (flink.ProcessFunc, error) {
		if s, ok := fn.(beam.Setupper); ok {
			if err := s.Setup(); err != nil {
				return nil, fmt.Errorf("flinkrunner: DoFn setup: %w", err)
			}
		}
		return func(rec []byte, out flink.Collector) error {
			elem, err := inCoder.Decode(rec)
			if err != nil {
				return fmt.Errorf("flinkrunner: decode: %w", err)
			}
			ctx.Charge(costs.CoderPerRecord)
			ctx.Charge(costs.BeamDoFnPerRecord)
			bctx := beam.Context{Window: beam.GlobalWindow{}}
			// The emitter closure adapts the Beam SDK contract to the
			// engine collector: it is the SDK-harness hop whose cost the
			// benchmark quantifies.
			//beamvet:allow hotalloc the emitter adapter is the SDK-to-engine hop under measurement
			return fn.ProcessElement(bctx, elem, func(emitted any) error {
				wire, err := outCoder.Encode(emitted)
				if err != nil {
					return fmt.Errorf("flinkrunner: encode: %w", err)
				}
				ctx.Charge(costs.CoderPerRecord)
				return out.Collect(wire)
			})
		}, nil
	}
}

// writeSerializer decodes the final collection back to raw bytes for the
// Kafka sink (the write-expansion ParDo of Figure 13).
func writeSerializer(inCoder beam.Coder, costs simcost.Costs) flink.ProcessFactory {
	return func(ctx flink.OperatorContext) (flink.ProcessFunc, error) {
		return func(rec []byte, out flink.Collector) error {
			elem, err := inCoder.Decode(rec)
			if err != nil {
				return fmt.Errorf("flinkrunner: write decode: %w", err)
			}
			ctx.Charge(costs.CoderPerRecord)
			payload, ok := elem.([]byte)
			if !ok {
				return fmt.Errorf("flinkrunner: KafkaWrite element %T is not []byte", elem)
			}
			ctx.Charge(costs.BeamDoFnPerRecord)
			return out.Collect(payload)
		}, nil
	}
}

// forwardProcess forwards records unchanged; it carries the plan node
// for metadata-only transforms like global re-windowing.
func forwardProcess(costs simcost.Costs) flink.ProcessFactory {
	return func(ctx flink.OperatorContext) (flink.ProcessFunc, error) {
		return func(rec []byte, out flink.Collector) error {
			ctx.Charge(costs.BeamDoFnPerRecord)
			return out.Collect(rec)
		}, nil
	}
}

// windowAssigner builds the timestamp/watermark assigner a non-global
// WindowInto translates to: each record's element-derived event time
// feeds a per-subtask watermark generator with the strategy's bound, and
// every generator advance is emitted as a watermark control event behind
// the record it covers.
func windowAssigner(ws beam.WindowingStrategy, coder beam.Coder, costs simcost.Costs) flink.AssignerFactory {
	return func(ctx flink.OperatorContext, wm flink.WatermarkEmitter) (flink.ProcessFunc, error) {
		gen := watermark.NewGenerator(ws.Bound)
		return func(rec []byte, out flink.Collector) error {
			elem, err := coder.Decode(rec)
			if err != nil {
				return fmt.Errorf("flinkrunner: WindowInto decode: %w", err)
			}
			ctx.Charge(costs.CoderPerRecord)
			ctx.Charge(costs.BeamDoFnPerRecord)
			et, err := ws.EventTime(elem)
			if err != nil {
				return fmt.Errorf("flinkrunner: WindowInto event time: %w", err)
			}
			if err := out.Collect(rec); err != nil {
				return err
			}
			if gen.Observe(et) {
				return wm.EmitWatermark(gen.Current())
			}
			return nil
		}, nil
	}
}
