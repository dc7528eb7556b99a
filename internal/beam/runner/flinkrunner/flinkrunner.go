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
	"time"

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
		return nil, "", graphx.Unsupported(ErrUnsupported, err)
	}

	costs := cfg.Cluster.Costs()
	env := flink.NewEnvironment(cfg.Cluster).
		SetParallelism(cfg.Parallelism).
		DisableOperatorChaining() // the runner emits unchained per-stage operators

	// Every stage body is the shared executable (graphx.Executable) with
	// a different entry and exit; what is Flink's here is one unchained
	// operator, with its Figure 13 plan label, per stage.
	streams := make(map[int]*flink.DataStream)
	in := func(s *graphx.Stage) *flink.DataStream { return streams[s.Inputs()[0].ID()] }
	jobName := "beam"
	for _, s := range plan.Stages {
		x := graphx.Executable{Name: s.Name(), Costs: costs}
		switch s.Kind() {
		case beam.KindKafkaRead:
			rc := s.KafkaRead()
			// The read expands to a raw source plus a flat map
			// wrapping broker payloads into encoded KafkaRecords.
			src := env.AddSource(NameRawSource, flink.KafkaSource(rc.Broker, rc.Topic, cfg.TargetRecords))
			x.Wrap, x.Encode = rc.Topic, s.Output().Coder()
			streams[s.Output().ID()] = src.Process(NameReadFlatMap, stage(x))
			jobName = "beam-" + rc.Topic

		case beam.KindCreate:
			encoded, err := graphx.EncodeAll(s.CreateValues(), s.Output().Coder())
			if err != nil {
				return nil, "", fmt.Errorf("flinkrunner: Create: %w", err)
			}
			streams[s.Output().ID()] = env.AddSource(NameRawSource, flink.SliceSource(encoded))

		case beam.KindParDo:
			// A fused stage is one engine operator: a single decode on
			// entry, the whole DoFn chain in memory, a single encode on
			// exit — the coder boundaries between the fused ParDos are
			// gone, which is what fusion buys on Flink.
			name := NameRawParDo
			if s.Fused() {
				name = NameExecutableStage
			}
			x.Fn, x.Decode, x.Encode = s.Fn(), s.Inputs()[0].Coder(), s.Output().Coder()
			streams[s.Output().ID()] = in(s).Process(name, stage(x))

		case beam.KindKafkaWrite:
			wc := s.KafkaWrite()
			// Write expands to a serializing ParDo (decode back to the raw
			// payload, Figure 13) plus the sink.
			x.Decode = s.Inputs()[0].Coder()
			in(s).Process(NameRawParDo, stage(x)).
				AddSink("KafkaIO.Write "+wc.Topic, flink.KafkaSink(wc.Broker, wc.Topic, wc.Producer))

		case beam.KindWindowInto:
			ws := s.WindowInto()
			if ws.IsGlobal() {
				// Global re-windowing carries only strategy metadata; at
				// runtime it is a forwarding operator.
				streams[s.Output().ID()] = in(s).Process(NameRawParDo, stage(x))
				break
			}
			// The engine's timestamp assigner: its watermark control events
			// travel through every downstream operator (min-over-senders).
			eventTime, err := s.EventTime()
			if err != nil {
				return nil, "", graphx.Unsupported(ErrUnsupported, err)
			}
			streams[s.Output().ID()] = in(s).AssignTimestamps(NameRawParDo, windowAssigner(eventTime, ws.Bound, costs))

		case beam.KindFlatten:
			rest := make([]*flink.DataStream, 0, len(s.Inputs())-1)
			for _, col := range s.Inputs()[1:] {
				rest = append(rest, streams[col.ID()])
			}
			// Flatten is the engine's union: a multi-input merge whose
			// output watermark the runtime holds at the minimum over all
			// inputs, so a lagging branch holds back downstream panes.
			streams[s.Output().ID()] = in(s).Union("Flatten", rest...)

		case beam.KindGroupByKey:
			// Hash-partition by key so equal keys meet in one subtask;
			// the shared GroupByKey executable fires its panes
			// tuple-at-a-time, as the subtask's combined watermark advances.
			newGBK, err := s.GBK(costs, cfg.Cluster.Trace())
			if err != nil {
				return nil, "", graphx.Unsupported(ErrUnsupported, err)
			}
			streams[s.Output().ID()] = in(s).KeyBy(graphx.EncodedKVKey).
				KeyedProcess("GroupByKey", func(ctx flink.OperatorContext) (watermark.Operator, error) {
					return newGBK(ctx.Charge)
				})

		}
	}
	return env, jobName, nil
}

// stage deploys the shared executable as one Flink operator. The
// runtime hands a subtask's ProcessFunc the same Collector on every
// call, so its Collect is bound when the collector changes — once — and
// the adapter adds no allocation to the record path.
func stage(x graphx.Executable) flink.ProcessFactory {
	return func(ctx flink.OperatorContext) (flink.ProcessFunc, error) {
		process, err := x.Bind(ctx.Charge)
		if err != nil {
			return nil, err
		}
		var (
			bound   flink.Collector
			collect func([]byte) error
		)
		return func(rec []byte, out flink.Collector) error {
			if out != bound {
				bound, collect = out, out.Collect
			}
			return process(rec, collect)
		}, nil
	}
}

// windowAssigner builds the timestamp/watermark assigner a non-global
// WindowInto translates to: each record's element-derived event time
// feeds a per-subtask watermark generator with the strategy's bound, and
// every generator advance is emitted as a watermark control event behind
// the record it covers.
func windowAssigner(eventTime func([]byte) (time.Time, error), bound time.Duration, costs simcost.Costs) flink.AssignerFactory {
	return func(ctx flink.OperatorContext, wm flink.WatermarkEmitter) (flink.ProcessFunc, error) {
		gen := watermark.NewGenerator(bound)
		return func(rec []byte, out flink.Collector) error {
			et, err := eventTime(rec)
			if err != nil {
				return err
			}
			ctx.Charge(costs.CoderPerRecord)
			ctx.Charge(costs.BeamDoFnPerRecord)
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
