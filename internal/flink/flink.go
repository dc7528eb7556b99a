// Package flink simulates Apache Flink's streaming runtime as described
// in Section II-B of Hesse et al. (ICDCS 2019): a standalone cluster with
// one Job Manager and several Task Managers whose task slots execute
// subtasks; tuple-at-a-time processing; and operator chaining, which
// fuses forward-connected operators of equal parallelism into a single
// task to avoid serialization and hand-over costs.
//
// Chaining is the load-bearing mechanism for the paper's Flink results:
// the native grep job (Figure 12) collapses into one chained task, while
// the Beam runner emits per-primitive operators with chaining disabled
// (Figure 13), paying a network hop and coder costs at every boundary.
//
// A boundary's cost is that charge (simcost.Costs.NetworkHopPerRecord,
// per record). Underneath, tasks exchange network buffers, not records
// (exchange.go): a sender appends records and watermark control events,
// in order, to a fixed-capacity buffer per downstream subtask and ships
// it when it is full, when the sending subtask is about to block on its
// own input, and at end of input. Every (sender, target) channel owns a
// small fixed set of buffers that the receiver hands back once drained;
// a sender with none free waits, which is the backpressure. The
// receiver still processes element by element, so the tuple-at-a-time
// firing clock is unchanged.
package flink

import (
	"errors"
	"fmt"
	"time"

	"beambench/internal/dag"
	"beambench/internal/watermark"
)

// Collector receives records emitted by an operator. Collect reports an
// error when the job is shutting down; operators must stop emitting and
// return it.
//
// Records are immutable once emitted (the ownership rule on
// broker.Record): the collector and everything downstream may keep the
// slice and alias into it, and the emitting operator must not write
// into it afterwards. No task boundary copies a record.
type Collector interface {
	Collect(record []byte) error
}

// OperatorContext gives per-subtask operator instances access to their
// runtime environment.
type OperatorContext interface {
	// SubtaskIndex is this instance's index in [0, Parallelism).
	SubtaskIndex() int
	// Parallelism is the operator's parallel instance count.
	Parallelism() int
	// Charge adds simulated processing cost to this subtask, used by
	// runners to model per-record overheads (coders, wrappers).
	Charge(d time.Duration)
}

// Source produces records by pushing them into the context's collector.
//
// What a source emits crosses the next task boundary in network buffers
// (see the package comment): a record is shipped when its buffer fills
// and when Run returns. A source that waits for input mid-run has no way
// to say so through this interface, so its last few records stay
// buffered for the duration of the wait; the Kafka source of this
// package flushes before every poll.
type Source interface {
	// Run emits records until the source is exhausted or ctx reports
	// shutdown. Run must return nil on clean exhaustion.
	Run(out Collector) error
}

// SourceFactory builds one Source instance per subtask.
type SourceFactory func(ctx OperatorContext) (Source, error)

// Sink consumes records.
type Sink interface {
	// Invoke handles one record.
	Invoke(record []byte) error
	// Close flushes and releases resources; called once per subtask.
	Close() error
}

// SinkFactory builds one Sink instance per subtask.
type SinkFactory func(ctx OperatorContext) (Sink, error)

// ProcessFunc transforms one record into zero or more records.
type ProcessFunc func(record []byte, out Collector) error

// ProcessFactory builds one ProcessFunc per subtask, allowing per-subtask
// state and cost accounting.
type ProcessFactory func(ctx OperatorContext) (ProcessFunc, error)

// KeyedFactory builds one keyed operator per subtask. It is the
// construction hook for event-time stateful operators: any
// watermark.Operator — the windowed aggregate, the join, the Beam
// runner's GroupByKey — deploys through KeyedProcess.
type KeyedFactory func(ctx OperatorContext) (watermark.Operator, error)

// WatermarkEmitter lets a timestamp-assigning operator inject the
// watermarks it generates into the dataflow as control events; the
// runtime threads them through the rest of the chain and across task
// boundaries to every downstream subtask.
type WatermarkEmitter interface {
	EmitWatermark(w time.Time) error
}

// AssignerFactory builds a per-subtask process function that may emit
// watermarks through the given emitter — the construction hook for
// timestamp assignment near the source, where event time enters the
// dataflow.
type AssignerFactory func(ctx OperatorContext, wm WatermarkEmitter) (ProcessFunc, error)

// KeySelector extracts the partitioning key from a record for hash
// partitioning (KeyBy).
type KeySelector func(record []byte) ([]byte, error)

// partitioning selects how records travel to the next operator.
type partitioning int

const (
	// partitionForward keeps records in the same subtask index; it is
	// the default and a precondition for chaining.
	partitionForward partitioning = iota + 1
	// partitionRebalance distributes records round-robin.
	partitionRebalance
	// partitionHash routes records by key hash, so equal keys reach the
	// same subtask (KeyBy).
	partitionHash
)

type opKind int

const (
	opSource opKind = iota + 1
	opTransform
	opSink
)

// inEdge is one input connection of an operator: the upstream operator
// and the partitioning records travel under.
type inEdge struct {
	from *operator
	part partitioning
	key  KeySelector
}

// operator is a node of the logical stream graph.
type operator struct {
	id          int
	name        string
	kind        opKind
	parallelism int
	chainable   bool

	sourceFactory  SourceFactory
	processFactory ProcessFactory
	keyedFactory   KeyedFactory
	assignFactory  AssignerFactory
	sinkFactory    SinkFactory

	inputs  []inEdge
	outputs []*operator

	metrics *OperatorMetrics
}

// Environment builds a streaming job, the analogue of Flink's
// StreamExecutionEnvironment.
type Environment struct {
	cluster         *Cluster
	parallelism     int
	chainingEnabled bool
	ops             []*operator
	err             error
}

// NewEnvironment returns an execution environment bound to a cluster
// with default parallelism 1.
func NewEnvironment(cluster *Cluster) *Environment {
	return &Environment{
		cluster:         cluster,
		parallelism:     1,
		chainingEnabled: true,
	}
}

// SetParallelism sets the default operator parallelism, the equivalent
// of the paper's `-p` submission flag (Section III-A2).
func (env *Environment) SetParallelism(p int) *Environment {
	if p <= 0 {
		env.fail(fmt.Errorf("flink: parallelism must be positive, got %d", p))
		return env
	}
	env.parallelism = p
	return env
}

// DisableOperatorChaining turns chaining off for the whole job, matching
// StreamExecutionEnvironment#disableOperatorChaining. The Beam runner
// uses this; it is also the ablation switch for the chaining benchmark.
func (env *Environment) DisableOperatorChaining() *Environment {
	env.chainingEnabled = false
	return env
}

func (env *Environment) fail(err error) {
	if env.err == nil {
		env.err = err
	}
}

// AddSource adds a source operator and returns its stream.
func (env *Environment) AddSource(name string, factory SourceFactory) *DataStream {
	op := &operator{
		name:          name,
		kind:          opSource,
		parallelism:   env.parallelism,
		chainable:     true,
		sourceFactory: factory,
	}
	env.addOp(op)
	if factory == nil {
		env.fail(fmt.Errorf("flink: source %q: nil factory", name))
	}
	return &DataStream{env: env, op: op}
}

func (env *Environment) addOp(op *operator) {
	op.id = len(env.ops)
	op.metrics = &OperatorMetrics{Name: op.name}
	env.ops = append(env.ops, op)
}

// Union merges this stream with the given streams into one: downstream
// operators observe the interleaved records of every input. The merge
// point is where watermark propagation earns its keep — the runtime
// holds the union's output watermark at the minimum over all inputs, so
// a lagging input holds back every downstream pane.
func (ds *DataStream) Union(name string, others ...*DataStream) *DataStream {
	if len(others) == 0 {
		ds.env.fail(fmt.Errorf("flink: union %q of a single stream", name))
		return ds
	}
	op := &operator{
		name:        name,
		kind:        opTransform,
		parallelism: ds.env.parallelism,
		chainable:   false, // a multi-input head never joins an upstream chain
		processFactory: func(OperatorContext) (ProcessFunc, error) {
			return func(rec []byte, out Collector) error { return out.Collect(rec) }, nil
		},
	}
	ds.env.addOp(op)
	ds.connect(op)
	for _, o := range others {
		if o == nil || o.env != ds.env {
			ds.env.fail(fmt.Errorf("flink: union %q across environments", name))
			return &DataStream{env: ds.env, op: op}
		}
		o.connect(op)
	}
	return &DataStream{env: ds.env, op: op}
}

// DataStream is a stream of records flowing out of an operator.
type DataStream struct {
	env   *Environment
	op    *operator
	rebal bool        // next operator reads rebalanced
	keyed KeySelector // next operator reads hash-partitioned by this key
}

// Map adds a 1:1 stateless transformation.
func (ds *DataStream) Map(name string, fn func([]byte) []byte) *DataStream {
	if fn == nil {
		ds.env.fail(fmt.Errorf("flink: map %q: nil function", name))
		return ds.transform(name, nil)
	}
	return ds.transform(name, func(OperatorContext) (ProcessFunc, error) {
		return func(rec []byte, out Collector) error {
			return out.Collect(fn(rec))
		}, nil
	})
}

// Filter adds a predicate operator that keeps matching records.
func (ds *DataStream) Filter(name string, fn func([]byte) bool) *DataStream {
	if fn == nil {
		ds.env.fail(fmt.Errorf("flink: filter %q: nil function", name))
		return ds.transform(name, nil)
	}
	return ds.transform(name, func(OperatorContext) (ProcessFunc, error) {
		return func(rec []byte, out Collector) error {
			if fn(rec) {
				return out.Collect(rec)
			}
			return nil
		}, nil
	})
}

// FlatMap adds a 1:N stateless transformation.
func (ds *DataStream) FlatMap(name string, fn func(record []byte, out Collector) error) *DataStream {
	if fn == nil {
		ds.env.fail(fmt.Errorf("flink: flatMap %q: nil function", name))
		return ds.transform(name, nil)
	}
	return ds.transform(name, func(OperatorContext) (ProcessFunc, error) {
		return ProcessFunc(fn), nil
	})
}

// Process adds a transformation with per-subtask construction, the
// analogue of a RichFunction. Runners use this to attach per-subtask
// cost accounting.
func (ds *DataStream) Process(name string, factory ProcessFactory) *DataStream {
	if factory == nil {
		ds.env.fail(fmt.Errorf("flink: process %q: nil factory", name))
	}
	return ds.transform(name, factory)
}

func (ds *DataStream) transform(name string, factory ProcessFactory) *DataStream {
	return ds.addTransform(&operator{name: name, processFactory: factory})
}

// addTransform appends a chainable transform at the job's default
// parallelism, reading from ds.
func (ds *DataStream) addTransform(op *operator) *DataStream {
	op.kind = opTransform
	op.parallelism = ds.env.parallelism
	op.chainable = true
	ds.env.addOp(op)
	ds.connect(op)
	return &DataStream{env: ds.env, op: op}
}

// Rebalance redistributes records round-robin to the next operator,
// breaking any chain at this point.
func (ds *DataStream) Rebalance() *DataStream {
	return &DataStream{env: ds.env, op: ds.op, rebal: true}
}

// KeyBy hash-partitions records by the selected key, so all records
// with equal keys reach the same subtask of the next operator. Like
// Rebalance, it breaks the chain at this point.
func (ds *DataStream) KeyBy(selector KeySelector) *DataStream {
	if selector == nil {
		ds.env.fail(fmt.Errorf("flink: KeyBy: nil key selector"))
		return ds
	}
	return &DataStream{env: ds.env, op: ds.op, keyed: selector}
}

// KeyedProcess deploys a keyed stateful operator on the engine's firing
// clock, tuple at a time: every record goes to Process, and every
// advance of the subtask's input watermark — the minimum over its
// senders, recomputed per watermark control event, which a per-tuple
// assigner upstream sends after every advancing record — goes to
// OnWatermark before it moves on downstream, so released panes precede
// the watermark that released them. Flush runs when the bounded input
// is exhausted, before downstream operators observe end of stream.
// Emissions enter the operator's output like any transform's: through
// the rest of the chain, or across the next task boundary.
//
// Use after KeyBy, so every key's records reach one subtask, and with a
// timestamp assigner upstream. Because the watermark is combined
// min-over-senders before delivery, a keyed merge of several
// concurrently active upstream subtasks needs no conservative fallback:
// nothing fires before every sender's watermark has passed it.
func (ds *DataStream) KeyedProcess(name string, factory KeyedFactory) *DataStream {
	if factory == nil {
		ds.env.fail(fmt.Errorf("flink: keyedProcess %q: nil factory", name))
	}
	return ds.addTransform(&operator{name: name, keyedFactory: factory})
}

// AssignTimestamps adds a timestamp-assignment operator: the factory's
// process function observes event times and injects the watermarks it
// generates into the dataflow through the emitter, from where the
// runtime threads them downstream as control events.
func (ds *DataStream) AssignTimestamps(name string, factory AssignerFactory) *DataStream {
	if factory == nil {
		ds.env.fail(fmt.Errorf("flink: assignTimestamps %q: nil factory", name))
	}
	return ds.addTransform(&operator{name: name, assignFactory: factory})
}

// DisableChaining prevents this stream's operator from being chained to
// its input, forcing a task boundary (network hop) before it.
func (ds *DataStream) DisableChaining() *DataStream {
	ds.op.chainable = false
	return ds
}

// SetParallelism overrides the parallelism of this stream's operator.
func (ds *DataStream) SetParallelism(p int) *DataStream {
	if p <= 0 {
		ds.env.fail(fmt.Errorf("flink: operator %q: parallelism must be positive, got %d", ds.op.name, p))
		return ds
	}
	ds.op.parallelism = p
	return ds
}

// AddSink terminates the stream in a sink operator.
func (ds *DataStream) AddSink(name string, factory SinkFactory) {
	if factory == nil {
		ds.env.fail(fmt.Errorf("flink: sink %q: nil factory", name))
	}
	op := &operator{
		name:        name,
		kind:        opSink,
		parallelism: ds.env.parallelism,
		chainable:   true,
		sinkFactory: factory,
	}
	ds.env.addOp(op)
	ds.connect(op)
}

func (ds *DataStream) connect(op *operator) {
	e := inEdge{from: ds.op, part: partitionForward}
	if ds.rebal {
		e.part = partitionRebalance
	}
	if ds.keyed != nil {
		e.part = partitionHash
		e.key = ds.keyed
	}
	op.inputs = append(op.inputs, e)
	ds.op.outputs = append(ds.op.outputs, op)
}

// ExecutionPlan renders the logical operator graph, the equivalent of
// the JSON plan the paper visualizes in Figures 12 and 13.
func (env *Environment) ExecutionPlan() (*dag.Graph, error) {
	if env.err != nil {
		return nil, env.err
	}
	g := dag.New()
	for _, op := range env.ops {
		kind := dag.KindOperator
		name := op.name
		switch op.kind {
		case opSource:
			kind = dag.KindSource
			name = "Source: " + op.name
		case opSink:
			kind = dag.KindSink
			name = "Sink: " + op.name
		}
		if err := g.AddNode(dag.Node{
			ID:          planID(op),
			Name:        name,
			Kind:        kind,
			Parallelism: op.parallelism,
		}); err != nil {
			return nil, err
		}
	}
	for _, op := range env.ops {
		for _, in := range op.inputs {
			if err := g.AddEdge(planID(in.from), planID(op)); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

func planID(op *operator) string {
	return fmt.Sprintf("op%d", op.id)
}

// validate checks the logical graph before execution.
func (env *Environment) validate() error {
	if env.err != nil {
		return env.err
	}
	if len(env.ops) == 0 {
		return errors.New("flink: empty job")
	}
	var hasSource, hasSink bool
	for _, op := range env.ops {
		switch op.kind {
		case opSource:
			hasSource = true
		case opSink:
			hasSink = true
		case opTransform:
			if len(op.outputs) == 0 {
				return fmt.Errorf("flink: operator %q has no consumers", op.name)
			}
		}
	}
	if !hasSource {
		return errors.New("flink: job has no source")
	}
	if !hasSink {
		return errors.New("flink: job has no sink")
	}
	return nil
}
