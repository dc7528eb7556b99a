// Package apex simulates Apache Apex (Section II-D of Hesse et al.,
// ICDCS 2019): a tuple-by-tuple streaming engine running on Apache
// Hadoop YARN. An application is a DAG of operators connected by streams;
// the Streaming Application Manager (STRAM) is the YARN Application
// Master; every operator partition runs in its own YARN container; and
// tuples travel between containers through a buffer server.
//
// Two mechanisms matter for the paper's results and are modeled
// faithfully:
//
//   - Streaming windows: operators process tuple-by-tuple, but the buffer
//     server publishes downstream once per streaming window (a batch),
//     and sinks flush on window boundaries. This keeps the native engine
//     competitive with Flink.
//   - Per-tuple streams: a stream can be configured to publish every
//     tuple individually (SetStreamPerTuple). The Beam runner's output
//     path effectively runs in this mode, which is why the paper measures
//     slowdowns of 30-58x for output-heavy queries on Apex while grep
//     (0.3% output) stays on par with native (Figure 11).
//
// Parallelism is configured through YARN vcores plus a DAG attribute,
// exactly as the paper describes (Section III-A2).
package apex

import (
	"errors"
	"fmt"
	"time"

	"beambench/internal/dag"
)

// Errors reported during application assembly and launch.
var (
	ErrDuplicateOperator = errors.New("apex: duplicate operator")
	ErrUnknownOperator   = errors.New("apex: unknown operator")
	ErrInvalidTopology   = errors.New("apex: invalid topology")
)

// OperatorContext describes one operator partition to its instance.
type OperatorContext interface {
	// PartitionIndex is this instance's index in [0, PartitionCount).
	PartitionIndex() int
	// PartitionCount is the operator's partition count.
	PartitionCount() int
	// InputPartitions is the number of upstream partitions publishing
	// into this operator's input streams, summed across all of them
	// (0 for input operators). The runtime sizes the partition's
	// per-input watermark tracking with it: the combined watermark is
	// the minimum across the upstream senders, so one racing upstream
	// cannot fire a pane whose records another upstream still holds.
	InputPartitions() int
	// Charge adds simulated processing cost to this partition.
	Charge(d time.Duration)
}

// InputOperator produces tuples.
//
// Tuples are immutable once emitted (the ownership rule on
// broker.Record): the stream, the downstream operators and the output
// may keep an emitted slice and alias into it, and the emitter must not
// write into it afterwards. No buffer-server publish copies a tuple.
type InputOperator interface {
	// NextTuples emits up to max tuples and reports whether the source
	// is exhausted.
	NextTuples(max int, emit func([]byte) error) (done bool, err error)
	// Teardown releases resources.
	Teardown() error
}

// GenericOperator transforms tuples.
type GenericOperator interface {
	// Process handles one tuple, emitting zero or more tuples.
	Process(tuple []byte, emit func([]byte) error) error
	Teardown() error
}

// WatermarkEmitter is the optional GenericOperator hook of operators
// that generate event-time watermarks (the timestamp assigner, where
// event time enters the DAG). After each processed batch the runtime
// reads CurrentWatermark and publishes advances downstream as control
// events — always behind the tuples they cover, never ahead of them.
type WatermarkEmitter interface {
	CurrentWatermark() time.Time
}

// OutputOperator consumes tuples.
type OutputOperator interface {
	// Process handles one tuple.
	Process(tuple []byte) error
	// EndWindow marks a streaming-window boundary; output operators
	// flush here (the Kafka output flushes its producer).
	EndWindow() error
	Teardown() error
}

// Factories build one operator instance per partition.
type (
	InputFactory   func(ctx OperatorContext) (InputOperator, error)
	GenericFactory func(ctx OperatorContext) (GenericOperator, error)
	OutputFactory  func(ctx OperatorContext) (OutputOperator, error)
)

type opKind int

const (
	kindInput opKind = iota + 1
	kindGeneric
	kindOutput
)

type opDef struct {
	name    string
	kind    opKind
	input   InputFactory
	generic GenericFactory
	output  OutputFactory

	// partitions overrides the launch-level parallelism for this
	// operator when positive (set via SetOperatorPartitions).
	partitions int

	inStreams  []*streamDef
	outStreams []*streamDef

	stats *OperatorStats
}

type streamDef struct {
	name     string
	from, to string
	perTuple bool
	// keyFn, when set, routes tuples to downstream partitions by key
	// hash instead of round-robin, so all tuples with equal keys reach
	// the same partition (keyed partitioning for stateful operators).
	keyFn func(tuple []byte) ([]byte, error)
}

// Application is an Apex application DAG under construction.
type Application struct {
	name    string
	ops     map[string]*opDef
	order   []string
	streams map[string]*streamDef
	sorder  []string
	err     error
}

// NewApplication returns an empty application DAG.
func NewApplication(name string) *Application {
	return &Application{
		name:    name,
		ops:     make(map[string]*opDef),
		streams: make(map[string]*streamDef),
	}
}

// Name returns the application name.
func (a *Application) Name() string { return a.name }

func (a *Application) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

func (a *Application) addOp(name string, def *opDef) {
	if name == "" {
		a.fail(errors.New("apex: empty operator name"))
		return
	}
	if _, ok := a.ops[name]; ok {
		a.fail(fmt.Errorf("%w: %q", ErrDuplicateOperator, name))
		return
	}
	def.name = name
	def.stats = &OperatorStats{Name: name}
	a.ops[name] = def
	a.order = append(a.order, name)
}

// AddInput adds a source operator.
func (a *Application) AddInput(name string, factory InputFactory) *Application {
	if factory == nil {
		a.fail(fmt.Errorf("apex: input %q: nil factory", name))
	}
	a.addOp(name, &opDef{kind: kindInput, input: factory})
	return a
}

// AddOperator adds a transforming operator.
func (a *Application) AddOperator(name string, factory GenericFactory) *Application {
	if factory == nil {
		a.fail(fmt.Errorf("apex: operator %q: nil factory", name))
	}
	a.addOp(name, &opDef{kind: kindGeneric, generic: factory})
	return a
}

// AddOutput adds a sink operator.
func (a *Application) AddOutput(name string, factory OutputFactory) *Application {
	if factory == nil {
		a.fail(fmt.Errorf("apex: output %q: nil factory", name))
	}
	a.addOp(name, &opDef{kind: kindOutput, output: factory})
	return a
}

// AddStream connects the output port of from to the input port of to.
func (a *Application) AddStream(name, from, to string) *Application {
	if name == "" {
		a.fail(errors.New("apex: empty stream name"))
		return a
	}
	if _, ok := a.streams[name]; ok {
		a.fail(fmt.Errorf("apex: duplicate stream %q", name))
		return a
	}
	src, ok := a.ops[from]
	if !ok {
		a.fail(fmt.Errorf("%w: %q", ErrUnknownOperator, from))
		return a
	}
	dst, ok := a.ops[to]
	if !ok {
		a.fail(fmt.Errorf("%w: %q", ErrUnknownOperator, to))
		return a
	}
	if src.kind == kindOutput {
		a.fail(fmt.Errorf("%w: stream %q leaves output operator %q", ErrInvalidTopology, name, from))
		return a
	}
	if dst.kind == kindInput {
		a.fail(fmt.Errorf("%w: stream %q enters input operator %q", ErrInvalidTopology, name, to))
		return a
	}
	s := &streamDef{name: name, from: from, to: to}
	a.streams[name] = s
	a.sorder = append(a.sorder, name)
	src.outStreams = append(src.outStreams, s)
	dst.inStreams = append(dst.inStreams, s)
	return a
}

// SetStreamPerTuple switches a stream between windowed batch publishing
// (false, the engine default) and per-tuple publishing (true, the mode
// the Beam runner's output path runs in).
func (a *Application) SetStreamPerTuple(name string, perTuple bool) *Application {
	s, ok := a.streams[name]
	if !ok {
		a.fail(fmt.Errorf("apex: unknown stream %q", name))
		return a
	}
	s.perTuple = perTuple
	return a
}

// SetStreamKeyed switches a stream from round-robin tuple distribution
// to keyed partitioning: the key extractor runs on every published
// tuple and its hash selects the downstream partition, so operators
// holding keyed state (windowed aggregations) see every record of a key
// in one partition. A nil key restores round-robin.
func (a *Application) SetStreamKeyed(name string, key func(tuple []byte) ([]byte, error)) *Application {
	s, ok := a.streams[name]
	if !ok {
		a.fail(fmt.Errorf("apex: unknown stream %q", name))
		return a
	}
	s.keyFn = key
	return a
}

// SetOperatorPartitions overrides the partition count of one operator,
// the equivalent of a per-operator partitioning DAG attribute. Zero
// restores the launch default. Output operators writing a single-
// partition Kafka topic are typically pinned to one partition.
func (a *Application) SetOperatorPartitions(name string, n int) *Application {
	op, ok := a.ops[name]
	if !ok {
		a.fail(fmt.Errorf("%w: %q", ErrUnknownOperator, name))
		return a
	}
	if n < 0 {
		a.fail(fmt.Errorf("apex: operator %q: negative partition count %d", name, n))
		return a
	}
	op.partitions = n
	return a
}

// RequiredVCores reports the vcores a launch at the given parallelism
// allocates: one container per operator partition (honouring per-
// operator overrides) plus the STRAM. Callers provisioning a cluster
// for the application size it with this.
func (a *Application) RequiredVCores(parallelism int) int {
	if parallelism <= 0 {
		parallelism = 1
	}
	total := 1
	for _, name := range a.order {
		if p := a.ops[name].partitions; p > 0 {
			total += p
		} else {
			total += parallelism
		}
	}
	return total
}

// validate checks the DAG for structural errors.
func (a *Application) validate() error {
	if a.err != nil {
		return a.err
	}
	if len(a.ops) == 0 {
		return fmt.Errorf("%w: empty application", ErrInvalidTopology)
	}
	var hasInput, hasOutput bool
	for _, name := range a.order {
		op := a.ops[name]
		switch op.kind {
		case kindInput:
			hasInput = true
			if len(op.outStreams) == 0 {
				return fmt.Errorf("%w: input %q has no output stream", ErrInvalidTopology, name)
			}
		case kindOutput:
			hasOutput = true
			if len(op.inStreams) == 0 {
				return fmt.Errorf("%w: output %q has no input stream", ErrInvalidTopology, name)
			}
		case kindGeneric:
			if len(op.inStreams) == 0 || len(op.outStreams) == 0 {
				return fmt.Errorf("%w: operator %q is not fully connected", ErrInvalidTopology, name)
			}
		}
	}
	if !hasInput {
		return fmt.Errorf("%w: no input operator", ErrInvalidTopology)
	}
	if !hasOutput {
		return fmt.Errorf("%w: no output operator", ErrInvalidTopology)
	}
	if _, err := a.Plan(1); err != nil {
		return err
	}
	return nil
}

// Plan renders the logical DAG with the given partition count per
// operator, for inspection and plan figures.
func (a *Application) Plan(parallelism int) (*dag.Graph, error) {
	if parallelism <= 0 {
		return nil, fmt.Errorf("apex: parallelism must be positive, got %d", parallelism)
	}
	g := dag.New()
	for _, name := range a.order {
		op := a.ops[name]
		kind := dag.KindOperator
		switch op.kind {
		case kindInput:
			kind = dag.KindSource
		case kindOutput:
			kind = dag.KindSink
		}
		if err := g.AddNode(dag.Node{ID: name, Name: name, Kind: kind, Parallelism: parallelism}); err != nil {
			return nil, err
		}
	}
	for _, sname := range a.sorder {
		s := a.streams[sname]
		if err := g.AddEdge(s.from, s.to); err != nil {
			return nil, err
		}
	}
	if _, err := g.TopoSort(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidTopology, err)
	}
	return g, nil
}
