// Package graphx lowers a validated Beam pipeline into an execution
// plan of typed stages that every runner translates from, and holds
// what the engine runners execute in common: Executable, the one
// stateless stage body (entry, DoFn, exit, charges and error policy),
// and GBKState, the GroupByKey operator. A runner's translation is a
// switch over the stages that wires these into its engine's graph.
//
// An Executable whose stage only reshapes a frame runs on frames: a
// forwarding stage, the write serializer over the bytes coder, the read
// expansion into the KafkaRecord coder, and a DoFn implementing
// beam.FrameFn (WithoutMetadata, Values) over the coders its rewrite
// accepts. Bind then picks a body that turns the record into its output
// frame without decoding it into an element, boxing it or encoding it
// again, and that makes the element path's charges, field for field and
// in order. The charges model the coder and dispatch work of the system
// under test; the frame body removes only our Go's boxing, which no
// charge stands for.
//
// Lower's ParDo-fusion
// pass generalizes the linear-chain fusion of the Apex runner to
// arbitrary pipeline graphs: maximal chains of ParDos whose intermediate
// collections have exactly one consumer collapse into a single
// executable stage, so elements pass between the fused DoFns in memory
// without a coder round trip — the optimization Hesse et al. (ICDCS
// 2019) identify as the lever separating Beam-on-Apex (~1x on grep)
// from Beam-on-Flink (an operator and coder boundary per primitive).
//
// Fusion stops at every materialization boundary: sources, sinks,
// GroupByKey (a shuffle), Flatten (a merge of several inputs),
// WindowInto (a windowing change), and any collection consumed by more
// than one transform (each consumer needs its own copy of the stream).
package graphx

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"beambench/internal/beam"
	"beambench/internal/dag"
)

// Options controls the lowering.
type Options struct {
	// Fusion enables the ParDo-fusion pass; false lowers every
	// transform to its own stage (the per-primitive translation whose
	// cost the paper measures).
	Fusion bool
}

// Stage is one execution-plan node: a single transform, or a fused
// chain of ParDos that a runner deploys as one engine operator.
type Stage struct {
	// ID is the stage's index in plan order.
	ID int
	// Transforms holds the stage's transforms in flow order; more than
	// one only for a fused ParDo chain.
	Transforms []*beam.Transform
}

// Kind is the stage's primitive kind; a fused chain is a ParDo stage.
func (s *Stage) Kind() beam.TransformKind { return s.Transforms[0].Kind }

// Fused reports whether the stage is a fused ParDo chain.
func (s *Stage) Fused() bool { return len(s.Transforms) > 1 }

// Name joins the stage's transform names in flow order.
func (s *Stage) Name() string {
	if !s.Fused() {
		return s.Transforms[0].Name
	}
	names := make([]string, len(s.Transforms))
	for i, t := range s.Transforms {
		names[i] = t.Name
	}
	return strings.Join(names, "+")
}

// Inputs are the collections the stage consumes from other stages.
func (s *Stage) Inputs() []beam.PCollection { return s.Transforms[0].Inputs }

// Output is the collection the stage produces; for a fused chain that is
// the last transform's output, the only one visible outside the stage.
// Sinks return a zero PCollection.
func (s *Stage) Output() beam.PCollection {
	return s.Transforms[len(s.Transforms)-1].Output
}

// Fn returns the DoFn a runner executes for a ParDo stage: the single
// transform's fn, or the in-memory composition of the fused chain.
func (s *Stage) Fn() beam.DoFn {
	if s.Kind() != beam.KindParDo {
		return nil
	}
	if !s.Fused() {
		return s.Transforms[0].Fn
	}
	fns := make([]beam.DoFn, len(s.Transforms))
	names := make([]string, len(s.Transforms))
	for i, t := range s.Transforms {
		fns[i] = t.Fn
		names[i] = t.Name
	}
	return &FusedFn{fns: fns, names: names}
}

// The typed config accessors assert: Lower has checked every stage's
// config against its kind.

// KafkaRead is a KafkaRead stage's connector config.
func (s *Stage) KafkaRead() beam.KafkaReadConfig {
	return s.Transforms[0].Config.(beam.KafkaReadConfig)
}

// KafkaWrite is a KafkaWrite stage's connector config.
func (s *Stage) KafkaWrite() beam.KafkaWriteConfig {
	return s.Transforms[0].Config.(beam.KafkaWriteConfig)
}

// CreateValues are a Create stage's in-memory values.
func (s *Stage) CreateValues() []any { return s.Transforms[0].Config.([]any) }

// WindowInto is the strategy a WindowInto stage assigns.
func (s *Stage) WindowInto() beam.WindowingStrategy {
	return s.Transforms[0].Config.(beam.WindowingStrategy)
}

// EventTime returns what an event-time WindowInto stage translates to
// on every engine, the timestamp extractor of the engine's assigner:
// decode the record with the input coder, then apply the strategy's
// element-derived event time. This is where event time enters the
// dataflow; window assignment itself stays in the strategy metadata the
// GroupByKey consumes. Coder boundaries erase flow timestamps, so
// non-global windowing without such an extractor is a capability gap
// (beam.ErrUnsupported).
func (s *Stage) EventTime() (func(rec []byte) (time.Time, error), error) {
	ws, coder, name := s.WindowInto(), s.Inputs()[0].Coder(), s.Name()
	if ws.EventTime == nil {
		return nil, fmt.Errorf("%w: non-global windowing (%s) without an event-time extractor",
			beam.ErrUnsupported, ws.Fn.Name())
	}
	return func(rec []byte) (time.Time, error) {
		elem, err := coder.Decode(rec)
		if err != nil {
			return time.Time{}, stageErr(name, fmt.Errorf("decode: %w", err))
		}
		return ws.EventTime(elem)
	}, nil
}

// Unsupported puts a runner's own ErrUnsupported sentinel into the
// chain of a capability-gap error raised here (one wrapping
// beam.ErrUnsupported), so callers can match either; any other error
// passes through.
func Unsupported(sentinel, err error) error {
	if errors.Is(err, beam.ErrUnsupported) {
		return fmt.Errorf("%w: %v", sentinel, err)
	}
	return err
}

// Plan is the lowered pipeline: stages in topological (construction)
// order.
type Plan struct {
	Stages []*Stage
}

// OperatorCount is the number of plan stages — the operator count a
// runner's translation starts from before engine-specific expansions.
func (pl *Plan) OperatorCount() int { return len(pl.Stages) }

// StageOf returns the stage producing the given collection, if any.
func (pl *Plan) StageOf(col beam.PCollection) (*Stage, bool) {
	for _, s := range pl.Stages {
		if s.Output().Valid() && s.Output().ID() == col.ID() {
			return s, true
		}
	}
	return nil, false
}

// Lower validates the pipeline and lowers it into an execution plan,
// running the fusion pass when requested. On top of Pipeline.Validate
// it guarantees what every translation relies on: each transform is of
// a known kind with a config of that kind's type, each input was
// produced by an earlier transform, and GroupByKey consumes a KV-coded
// collection.
func Lower(p *beam.Pipeline, opts Options) (*Plan, error) {
	if p == nil {
		return nil, errors.New("graphx: nil pipeline")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	transforms := p.Transforms()

	// consumers counts how many transforms read each collection; an
	// intermediate with more than one consumer is a materialization
	// boundary and must not be fused away.
	consumers := make(map[int]int)
	for _, t := range transforms {
		for _, in := range t.Inputs {
			consumers[in.ID()]++
		}
	}

	pl := &Plan{}
	// stageByOutput tracks which stage produced each collection so a
	// ParDo can extend its producer's chain.
	stageByOutput := make(map[int]*Stage)
	produced := make(map[int]bool)
	for _, t := range transforms {
		if err := check(t, produced); err != nil {
			return nil, err
		}
		if t.Output.Valid() {
			produced[t.Output.ID()] = true
		}
		if opts.Fusion && t.Kind == beam.KindParDo {
			in := t.Inputs[0]
			if prod, ok := stageByOutput[in.ID()]; ok &&
				prod.Kind() == beam.KindParDo &&
				consumers[in.ID()] == 1 {
				// Fuse: the producer chain's output becomes stage-
				// internal; only the new tail is visible downstream.
				delete(stageByOutput, in.ID())
				prod.Transforms = append(prod.Transforms, t)
				if t.Output.Valid() {
					stageByOutput[t.Output.ID()] = prod
				}
				continue
			}
		}
		s := &Stage{ID: len(pl.Stages), Transforms: []*beam.Transform{t}}
		pl.Stages = append(pl.Stages, s)
		if t.Output.Valid() {
			stageByOutput[t.Output.ID()] = s
		}
	}
	return pl, nil
}

// check is Lower's per-transform validation; produced holds the
// collections of the transforms before t.
func check(t *beam.Transform, produced map[int]bool) error {
	for _, in := range t.Inputs {
		if !produced[in.ID()] {
			return fmt.Errorf("graphx: %v %q consumes a collection no earlier transform produced", t.Kind, t.Name)
		}
	}
	ok := true
	switch t.Kind {
	case beam.KindKafkaRead:
		_, ok = t.Config.(beam.KafkaReadConfig)
	case beam.KindKafkaWrite:
		_, ok = t.Config.(beam.KafkaWriteConfig)
	case beam.KindCreate:
		_, ok = t.Config.([]any)
	case beam.KindWindowInto:
		_, ok = t.Config.(beam.WindowingStrategy)
	case beam.KindGroupByKey:
		if _, kv := t.Inputs[0].Coder().(beam.KVCoder); !kv {
			return fmt.Errorf("%w: GroupByKey over coder %s", beam.ErrUnsupported, t.Inputs[0].Coder().Name())
		}
	case beam.KindParDo, beam.KindFlatten:
	default:
		return fmt.Errorf("%w: %v (%s)", beam.ErrUnsupported, t.Kind, t.Name)
	}
	if !ok {
		return fmt.Errorf("graphx: malformed %v config %T", t.Kind, t.Config)
	}
	return nil
}

// Graph renders the plan as a DAG for visualization (cmd/planviz); a
// fused stage appears as one node labelled with its chain.
func (pl *Plan) Graph() (*dag.Graph, error) {
	g := dag.New()
	for _, s := range pl.Stages {
		kind := dag.KindOperator
		if len(s.Inputs()) == 0 {
			kind = dag.KindSource
		}
		if !s.Output().Valid() {
			kind = dag.KindSink
		}
		name := s.Name()
		if name == "" {
			name = s.Kind().String()
		}
		if err := g.AddNode(dag.Node{
			ID:          fmt.Sprintf("s%d", s.ID),
			Name:        name,
			Kind:        kind,
			Parallelism: 1,
		}); err != nil {
			return nil, err
		}
	}
	for _, s := range pl.Stages {
		for _, in := range s.Inputs() {
			src, ok := pl.StageOf(in)
			if !ok {
				continue
			}
			if err := g.AddEdge(fmt.Sprintf("s%d", src.ID), fmt.Sprintf("s%d", s.ID)); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// FusedFn executes a fused ParDo chain as one DoFn: each element flows
// through the constituent fns via in-memory emitters, and the final
// fn's emissions surface as the stage's output.
type FusedFn struct {
	fns   []beam.DoFn
	names []string
}

// Len reports the number of fused DoFns.
func (f *FusedFn) Len() int { return len(f.fns) }

// ProcessElement implements beam.DoFn. It composes the chain for the
// call; Executable.Bind composes it once per engine instance instead.
func (f *FusedFn) ProcessElement(ctx beam.Context, elem any, emit beam.Emitter) error {
	return compose(ctx, f.fns, emit)(elem)
}

// compose returns the emitter that runs an element through fns in
// order, each fn's emissions feeding the next and the last fn's going
// to emit: the fused stage's in-memory hand-off.
func compose(ctx beam.Context, fns []beam.DoFn, emit beam.Emitter) beam.Emitter {
	for i := len(fns) - 1; i >= 0; i-- {
		fn, next := fns[i], emit
		//beamvet:allow hotalloc one emitter per fn per composition: once per Bind on the engines; only an unbound ProcessElement call (direct runner) composes per element
		emit = func(elem any) error { return fn.ProcessElement(ctx, elem, next) }
	}
	return emit
}

// Setup implements beam.Setupper: every fused fn's hook runs in chain
// order, and a failure names the DoFn it came from. DoFns already set
// up when a later one fails are torn down (best effort) so the failed
// stage does not leak their resources.
func (f *FusedFn) Setup() error {
	for i, fn := range f.fns {
		s, ok := fn.(beam.Setupper)
		if !ok {
			continue
		}
		if err := s.Setup(); err != nil {
			f.teardownRange(i - 1)
			return fmt.Errorf("fused DoFn %q: %w", f.names[i], err)
		}
	}
	return nil
}

// Teardown implements beam.Teardowner, unwinding in reverse chain order
// (downstream fns first, mirroring setup). Every hook runs even when an
// earlier one fails — a failed teardown must not leak the other fns'
// resources — and the first error is reported.
func (f *FusedFn) Teardown() error {
	var firstErr error
	for i := len(f.fns) - 1; i >= 0; i-- {
		if td, ok := f.fns[i].(beam.Teardowner); ok {
			if err := td.Teardown(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("fused DoFn %q: %w", f.names[i], err)
			}
		}
	}
	return firstErr
}

// teardownRange tears down fns[0..last] in reverse order, ignoring
// errors (it runs on the failure path, where the Setup error wins).
func (f *FusedFn) teardownRange(last int) {
	for i := last; i >= 0; i-- {
		if td, ok := f.fns[i].(beam.Teardowner); ok {
			_ = td.Teardown()
		}
	}
}

// EncodeAll encodes a Create transform's values for the first operator
// boundary.
func EncodeAll(values []any, coder beam.Coder) ([][]byte, error) {
	out := make([][]byte, len(values))
	for i, v := range values {
		b, err := coder.Encode(v)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}
