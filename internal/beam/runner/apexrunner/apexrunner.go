// Package apexrunner translates Beam pipelines into applications on the
// Apex engine simulator. Its translation choices reproduce the paper's
// most extreme result (Hesse et al., ICDCS 2019, Figure 11: slowdowns of
// 30–58x for output-heavy queries but ~1x for grep; 30–58x is the wider
// band, also quoted in internal/simcost and internal/apex, and its lower
// bound cannot be checked offline, as PAPER.md holds only the abstract):
//
//   - By default the ParDo chain is fused into a single Apex operator
//     (an executable stage deployed with container-local stream
//     locality) by the shared fusion pass (internal/beam/graphx), so the
//     *input* path performs like a native Apex job — elements pass
//     between fused DoFns in memory without coder round trips. This is
//     why the paper measures Beam-on-Apex grep on par with native Apex
//     (sf 0.91) while Beam-on-Flink pays for every one of its unchained
//     operator boundaries. beam.FusionOff disables the pass, deploying
//     one operator per ParDo with a coder boundary at each hop, so the
//     unfused abstraction cost is measurable on Apex too.
//   - The *output* path is pathological in both modes: the stream into
//     the Kafka output operator publishes per tuple through the buffer
//     server, and the output operator writes synchronously — one produce
//     request per record (producer batch size 1) plus per-record KafkaIO
//     write bookkeeping. The cost therefore scales with output volume:
//     catastrophic for identity/projection (100% output), roughly half
//     for sample (40%), negligible for grep (0.3%).
//   - The output operator is pinned to a single partition: the output
//     topic has one partition, so synchronous writes cannot be
//     parallelized away — raising the paper-observed effect that higher
//     parallelism does not help Beam-on-Apex (Figure 6: 237.5s at P1 vs
//     241.0s at P2).
package apexrunner

import (
	"context"
	"errors"
	"fmt"

	"beambench/internal/apex"
	"beambench/internal/beam"
	"beambench/internal/beam/graphx"
	"beambench/internal/metrics"
	"beambench/internal/obs"
	"beambench/internal/simcost"
	"beambench/internal/watermark"
	"beambench/internal/yarn"
)

// Name is the runner's registry name.
const Name = "apex"

func init() {
	beam.RegisterRunner(Name, Runner{})
}

// ErrUnsupported marks transforms and shapes this runner cannot
// translate. It wraps the shared beam.ErrUnsupported sentinel, so
// callers can match capability gaps without naming the runner.
var ErrUnsupported = fmt.Errorf("apexrunner: %w", beam.ErrUnsupported)

// Operator names used in the translated DAG.
const (
	// NameRead is the Kafka input operator.
	NameRead = "KafkaIO.Read"
	// NameStage is the fused ParDo chain (Beam executable stage).
	NameStage = "ExecutableStage"
	// NameWrite is the Kafka output operator.
	NameWrite = "KafkaIO.Write"
)

// Config parameterizes a pipeline execution.
type Config struct {
	// Cluster is the YARN cluster to deploy on.
	Cluster *yarn.Cluster
	// Parallelism is the operator partition count, configured through
	// YARN vcores plus a DAG attribute as in the paper. Defaults to 1.
	Parallelism int
	// Costs is the latency model shared with the engine.
	Costs simcost.Costs
	// Sim scales the cost model; nil charges nothing.
	Sim *simcost.Simulator
	// Fusion selects the translation mode. The Apex runner's default is
	// fused — the executable-stage deployment the paper measures.
	Fusion beam.FusionMode
	// Metrics, when non-nil, receives per-operator throughput from the
	// deployed application's partitions. Nil disables collection.
	Metrics *metrics.Collector
	// Trace, when non-nil, records spans and watermark gauges from the
	// deployed application. Nil disables tracing.
	Trace *obs.Tracer
	// TargetRecords bounds every KafkaRead by the total record count the
	// topic will eventually hold (see beam.Options.TargetRecords); 0
	// snapshots the topic contents at partition setup.
	TargetRecords int64
}

// Runner implements beam.Runner: it builds a fresh YARN cluster from
// the options, launches the application and tears the cluster down.
type Runner struct{}

// Run implements beam.Runner.
func (Runner) Run(ctx context.Context, p *beam.Pipeline, opts beam.Options) (beam.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cluster, err := yarn.NewCluster(yarn.ClusterConfig{})
	if err != nil {
		return nil, err
	}
	cluster.Start()
	defer func() { cluster.Stop() }()
	cfg := Config{
		Cluster:       cluster,
		Parallelism:   opts.EffectiveParallelism(),
		Costs:         opts.EffectiveCosts(),
		Sim:           opts.Sim,
		Fusion:        opts.Fusion,
		Metrics:       opts.Metrics,
		Trace:         opts.Trace,
		TargetRecords: opts.TargetRecords,
	}
	// Unfused multi-source pipelines can translate to more operator
	// partitions than the default cluster's vcores. The runner owns this
	// ephemeral cluster, so it provisions enough node managers for the
	// translated application — the harness analog of requesting a large
	// enough YARN queue.
	app, _, err := Translate(p, cfg)
	if err != nil {
		return nil, err
	}
	// maxProvisionedVCores bounds the ephemeral cluster: enough headroom
	// for any translated DAG at benchmark parallelisms, while an absurd
	// parallelism still fails fast inside YARN instead of spinning up an
	// absurd simulated cluster.
	const maxProvisionedVCores = 64
	if need := app.RequiredVCores(cfg.Parallelism); need > cluster.TotalVCores() && need <= maxProvisionedVCores {
		perNode := 8
		bigger, err := yarn.NewCluster(yarn.ClusterConfig{
			NodeManagers: (need + perNode - 1) / perNode,
		})
		if err != nil {
			return nil, err
		}
		cluster.Stop()
		cluster = bigger
		cfg.Cluster = bigger
		cluster.Start()
	}
	res, err := Run(p, cfg)
	if err != nil {
		return nil, err
	}
	return &result{app: res}, nil
}

// result adapts an apex.AppResult to beam.Result.
type result struct {
	app *apex.AppResult
}

func (r *result) Elements(beam.PCollection) []any { return nil }

func (r *result) OperatorCount() int { return len(r.app.Operators) }

func (r *result) Metrics() map[string]int64 {
	out := make(map[string]int64, len(r.app.Operators))
	for _, o := range r.app.Operators {
		out[o.Name] += o.TuplesOut
	}
	return out
}

// Run translates and executes the pipeline, blocking until completion.
func Run(p *beam.Pipeline, cfg Config) (*apex.AppResult, error) {
	app, launch, err := Translate(p, cfg)
	if err != nil {
		return nil, err
	}
	stram, err := apex.Launch(cfg.Cluster, app, launch)
	if err != nil {
		return nil, err
	}
	return stram.Await()
}

// Translate builds the Apex application for a pipeline without running
// it, returning the application and its launch configuration. The
// translation is shape-general: any DAG of sources, ParDo stages (single
// or fused), Flatten merges, WindowInto assigners and keyed GroupByKey
// stages into one Kafka sink, each plan stage one Apex operator wired by
// buffer-server streams.
func Translate(p *beam.Pipeline, cfg Config) (*apex.Application, apex.LaunchConfig, error) {
	var zero apex.LaunchConfig
	if cfg.Cluster == nil {
		return nil, zero, errors.New("apexrunner: nil cluster")
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = 1
	}
	if cfg.Parallelism < 0 {
		return nil, zero, fmt.Errorf("apexrunner: negative parallelism %d", cfg.Parallelism)
	}
	plan, err := graphx.Lower(p, graphx.Options{Fusion: cfg.Fusion.Enabled(true)})
	if err != nil {
		return nil, zero, graphx.Unsupported(ErrUnsupported, err)
	}

	// sinkInput marks the collection feeding the KafkaWrite: the stage
	// producing it serializes for the synchronous sink on exit, so it
	// cannot also feed another stage (the exits differ).
	sinkInput := -1
	var wc beam.KafkaWriteConfig
	writes := 0
	for _, s := range plan.Stages {
		if s.Kind() == beam.KindKafkaWrite {
			writes++
			wc = s.KafkaWrite()
			sinkInput = s.Inputs()[0].ID()
		}
	}
	if writes == 0 {
		return nil, zero, fmt.Errorf("%w: pipeline has no KafkaIO.Write sink", ErrUnsupported)
	}
	if writes > 1 {
		return nil, zero, fmt.Errorf("%w: multiple sinks", ErrUnsupported)
	}
	for _, s := range plan.Stages {
		if s.Kind() == beam.KindKafkaWrite {
			continue
		}
		for _, in := range s.Inputs() {
			if in.ID() == sinkInput {
				return nil, zero, fmt.Errorf("%w: collection feeds both the sink and another stage", ErrUnsupported)
			}
		}
	}
	// The exit into the sink pays the per-record synchronous write
	// bookkeeping: the payload's coder plus the unbatched send.
	sinkCharge := cfg.Costs.CoderPerRecord + cfg.Costs.ProducerSyncSend

	app := apex.NewApplication("beam")
	names := stageNames(plan.Stages)

	// Every stage body is the shared executable (graphx.Executable) with
	// a different entry and exit; what is Apex's here is one operator
	// per stage on buffer-server streams, and the sink wiring below.
	// ops maps collection IDs to the operator producing them; sourceOut
	// holds, as the entry fields of an Executable, how the stage behind a
	// raw source output takes its records (no coder boundary yet: Kafka
	// payloads to wrap, or Create values under the source coder).
	ops := make(map[int]string)
	sourceOut := make(map[int]graphx.Executable)
	streamN := 0
	addStream := func(from, to string) string {
		name := fmt.Sprintf("stream%d", streamN)
		app.AddStream(name, from, to)
		streamN++
		return name
	}
	adjacent := func(s *graphx.Stage) bool {
		_, raw := sourceOut[s.Inputs()[0].ID()]
		return raw || s.Output().ID() == sinkInput
	}

	for i, s := range plan.Stages {
		x := graphx.Executable{Name: names[i], Costs: cfg.Costs}
		switch s.Kind() {
		case beam.KindKafkaRead:
			rc := s.KafkaRead()
			app.AddInput(names[i], apex.KafkaInput(rc.Broker, rc.Topic, cfg.TargetRecords))
			sourceOut[s.Output().ID()] = graphx.Executable{Wrap: rc.Topic}

		case beam.KindCreate:
			encoded, err := graphx.EncodeAll(s.CreateValues(), s.Output().Coder())
			if err != nil {
				return nil, zero, fmt.Errorf("apexrunner: Create: %w", err)
			}
			app.AddInput(names[i], apex.SliceInput(encoded))
			sourceOut[s.Output().ID()] = graphx.Executable{Decode: s.Output().Coder()}

		case beam.KindParDo:
			// Fused, elements travel between the chained DoFns as
			// in-memory values (container-local locality) and one dispatch
			// charge applies per record; unfused, each operator boundary
			// pays a coder round trip.
			in := s.Inputs()[0]
			x.Fn, x.Decode, x.Encode = s.Fn(), in.Coder(), s.Output().Coder()
			if e, raw := sourceOut[in.ID()]; raw {
				x.Wrap, x.Decode = e.Wrap, e.Decode
			}
			if s.Output().ID() == sinkInput {
				x.Encode, x.SinkCharge = nil, sinkCharge
			}
			app.AddOperator(names[i], stage(x))
			addStream(ops[in.ID()], names[i])

		case beam.KindFlatten:
			// Flatten is the engine's merge: every input stream feeds one
			// forwarding operator port, and the runtime holds the
			// operator's output watermark at the minimum over all inputs.
			// Tuples pass through encoded, so a raw source output cannot
			// be flattened directly (its payloads carry no coder).
			if s.Output().ID() == sinkInput {
				return nil, zero, fmt.Errorf("%w: Flatten adjacent to sink", ErrUnsupported)
			}
			app.AddOperator(names[i], stage(x))
			for _, in := range s.Inputs() {
				if _, raw := sourceOut[in.ID()]; raw {
					return nil, zero, fmt.Errorf("%w: Flatten directly from a source", ErrUnsupported)
				}
				addStream(ops[in.ID()], names[i])
			}

		case beam.KindWindowInto:
			if adjacent(s) {
				return nil, zero, fmt.Errorf("%w: WindowInto adjacent to source or sink", ErrUnsupported)
			}
			if ws := s.WindowInto(); ws.IsGlobal() {
				// Global re-windowing carries only strategy metadata
				// (consumed by the downstream GroupByKey); at runtime it
				// forwards the encoded records unchanged.
				app.AddOperator(names[i], stage(x))
			} else {
				// The engine's timestamp assigner: its watermark control
				// events travel through every downstream operator
				// (min-over-senders).
				eventTime, err := s.EventTime()
				if err != nil {
					return nil, zero, graphx.Unsupported(ErrUnsupported, err)
				}
				app.AddOperator(names[i], apex.AssignTimestamps(eventTime, ws.Bound))
			}
			addStream(ops[s.Inputs()[0].ID()], names[i])

		case beam.KindGroupByKey:
			if adjacent(s) {
				return nil, zero, fmt.Errorf("%w: GroupByKey adjacent to source or sink", ErrUnsupported)
			}
			newGBK, err := s.GBK(cfg.Costs, cfg.Trace)
			if err != nil {
				return nil, zero, graphx.Unsupported(ErrUnsupported, err)
			}
			app.AddOperator(names[i], apex.KeyedOp(func(ctx apex.OperatorContext) (watermark.Operator, error) {
				return newGBK(ctx.Charge)
			}))
			// Keyed partitioning: the stream into the stateful operator
			// hashes the encoded KV key, so equal keys meet in one
			// partition.
			app.SetStreamKeyed(addStream(ops[s.Inputs()[0].ID()], names[i]), graphx.EncodedKVKey)

		case beam.KindKafkaWrite:
			// Handled below: the sink is wired after its producer exists.
		}
		if s.Output().Valid() {
			ops[s.Output().ID()] = names[i]
		}
	}

	prev := ops[sinkInput]
	if x, raw := sourceOut[sinkInput]; raw {
		// Read straight into write: one forwarding stage preserves the
		// three-operator minimum shape.
		x.Name, x.SinkCharge, x.Costs = NameStage, sinkCharge, cfg.Costs
		app.AddOperator(NameStage, stage(x))
		addStream(prev, NameStage)
		prev = NameStage
	}

	// Sink: unbatched synchronous producer, fed by a per-tuple stream,
	// pinned to one partition (single-partition output topic).
	producerCfg := wc.Producer
	producerCfg.BatchSize = 1
	app.AddOutput(NameWrite, apex.KafkaOutput(wc.Broker, wc.Topic, producerCfg))
	app.AddStream("stageToWrite", prev, NameWrite)
	app.SetStreamPerTuple("stageToWrite", true)
	app.SetOperatorPartitions(NameWrite, 1)

	launch := apex.LaunchConfig{
		Parallelism: cfg.Parallelism,
		Costs:       cfg.Costs,
		Sim:         cfg.Sim,
		Metrics:     cfg.Metrics,
		Trace:       cfg.Trace,
	}
	return app, launch, nil
}

// stageNames assigns unique operator names: the Kafka read name for
// sources, the canonical fused-stage name for a fused chain, and the
// transform name (deduplicated) otherwise.
func stageNames(stages []*graphx.Stage) []string {
	names := make([]string, len(stages))
	seen := make(map[string]bool)
	for i, s := range stages {
		name := s.Name()
		switch {
		case s.Kind() == beam.KindKafkaRead || s.Kind() == beam.KindCreate:
			name = NameRead
		case s.Fused():
			name = NameStage
		case name == "":
			name = fmt.Sprintf("ParDo%d", i)
		}
		if seen[name] {
			name = fmt.Sprintf("%s#%d", name, i)
		}
		seen[name] = true
		names[i] = name
	}
	return names
}

// stage deploys the shared executable as one Apex operator: the
// engine's per-partition hook has the executable's shape, so binding it
// to the partition's charge is the whole adapter.
func stage(x graphx.Executable) apex.GenericFactory {
	return apex.ProcessOp(func(ctx apex.OperatorContext) (func([]byte, func([]byte) error) error, error) {
		return x.Bind(ctx.Charge)
	})
}
