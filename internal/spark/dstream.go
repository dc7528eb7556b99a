// Package spark simulates Apache Spark Streaming as described in Section
// II-C of Hesse et al. (ICDCS 2019): a driver program coordinating
// executors; streams processed as micro-batches (discretized streams) —
// sequences of RDDs — rather than tuple-at-a-time.
//
// Micro-batching amortizes scheduling and I/O over whole batches, which
// is why the paper measures the lowest native execution times on Spark.
// The per-batch and per-task launch costs, and the per-record costs the
// Beam runner adds inside each batch, follow the simcost model.
package spark

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"
)

// Config controls a StreamingContext.
type Config struct {
	// DefaultParallelism is spark.default.parallelism, the setting the
	// paper uses to configure parallelism (Section III-A2). It sizes
	// shuffles requested via RepartitionDefault. Defaults to 1.
	DefaultParallelism int
	// MaxRatePerPartition caps records per partition per batch, like
	// spark.streaming.kafka.maxRatePerPartition. Defaults to 10000.
	MaxRatePerPartition int
}

func (c *Config) validate() error {
	if c.DefaultParallelism == 0 {
		c.DefaultParallelism = 1
	}
	if c.DefaultParallelism < 0 {
		return fmt.Errorf("spark: negative default parallelism %d", c.DefaultParallelism)
	}
	if c.MaxRatePerPartition == 0 {
		c.MaxRatePerPartition = 10_000
	}
	if c.MaxRatePerPartition < 0 {
		return fmt.Errorf("spark: negative max rate %d", c.MaxRatePerPartition)
	}
	return nil
}

// StreamingContext builds and runs a micro-batch streaming application,
// the analogue of Spark's StreamingContext owned by the driver program.
type StreamingContext struct {
	cluster *Cluster
	cfg     Config

	inputs  []*DStream
	outputs []*outputOp
	err     error
	state   ctxState

	mu      sync.Mutex
	metrics StreamingMetrics
}

type ctxState int

const (
	stateBuilding ctxState = iota + 1
	stateRunning
	stateStopped
)

// StreamingMetrics aggregates execution counters across batches.
type StreamingMetrics struct {
	// Batches is the number of micro-batches executed.
	Batches int64
	// RecordsIn counts records entering the pipeline.
	RecordsIn int64
	// RecordsOut counts records delivered to output operations.
	RecordsOut int64
}

// NewStreamingContext returns a context in building state.
func NewStreamingContext(cluster *Cluster, cfg Config) (*StreamingContext, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &StreamingContext{cluster: cluster, cfg: cfg, state: stateBuilding}, nil
}

// DefaultParallelism reports the configured spark.default.parallelism.
func (ssc *StreamingContext) DefaultParallelism() int {
	return ssc.cfg.DefaultParallelism
}

func (ssc *StreamingContext) fail(err error) {
	if ssc.err == nil {
		ssc.err = err
	}
}

// stageKind classifies one lineage node.
type stageKind int

const (
	stageInput stageKind = iota + 1
	stageNarrow
	stageShuffle
	// stageStateful is a keyed stage whose per-partition processors
	// persist across micro-batches (see DStream.Stateful).
	stageStateful
	// stageUnion concatenates the partitions of several parent streams
	// (DStream.Union) — no shuffle, the branches' RDD partitions sit side
	// by side.
	stageUnion
	// stageAssign is the timestamp/watermark assigner: a pass-through
	// stage whose persistent per-partition generators stamp the
	// lineage's event-time watermark (DStream.AssignTimestampsBounded).
	stageAssign
)

// narrowFn processes one record, emitting zero or more records. An
// error, its own or one emit returned, fails the task and the batch.
//
// Records are immutable once emitted (the ownership rule on
// broker.Record): the next stage, a shuffle and the output may keep an
// emitted slice and alias into it, and fn must not write into it
// afterwards. No stage boundary or shuffle copies a record.
type narrowFn = func(rec []byte, emit func([]byte) error) error

// narrowFactory builds the per-task function for a (batch, partition),
// allowing per-task state such as sampling RNGs or runner cost meters.
// Its error fails the task too: that is how a per-instance
// initialization failure such as a Beam DoFn Setup error surfaces.
type narrowFactory = func(task TaskContext) (narrowFn, error)

// TaskContext describes the task evaluating a stage partition.
type TaskContext struct {
	// BatchID numbers the micro-batch, starting at 0.
	BatchID int64
	// Partition is the RDD partition index.
	Partition int
	// Charge adds simulated per-record cost to the running task.
	Charge func(d time.Duration)
}

// DStream is a discretized stream: a lineage of transformations applied
// to every micro-batch RDD.
type DStream struct {
	ssc     *StreamingContext
	parent  *DStream
	kind    stageKind
	name    string // stage label for telemetry; see Named
	factory narrowFactory
	width   int // for stageShuffle: target partition count
	// shuffleKey, when set on a stageShuffle, routes records by key hash
	// instead of round-robin (RepartitionByKey).
	shuffleKey func(rec []byte) ([]byte, error)
	// state holds a stateful stage's persistent per-partition processors.
	state *statefulNode
	// parents holds a union stage's merged input branches.
	parents []*DStream
	// assign holds an assign stage's persistent watermark generators.
	assign *assignNode

	input inputSource
}

// Named sets the stage's telemetry label (per-stage throughput is
// reported under it) and returns the stream for chaining. Constructors
// assign generic defaults ("Map", "Filter", ...); the Beam runner
// overrides them with the translated operator names.
func (ds *DStream) Named(name string) *DStream {
	ds.name = name
	return ds
}

// inputSource supplies per-batch input partitions.
type inputSource interface {
	// nextBatch returns the records per partition for one batch and
	// whether any data remains (for bounded runs). An all-empty batch
	// with remaining=true means the source is idle.
	nextBatch(batchID int64) (parts [][][]byte, remaining bool, err error)
}

func (ssc *StreamingContext) newInput(src inputSource) *DStream {
	ds := &DStream{ssc: ssc, kind: stageInput, name: "Input", input: src}
	ssc.inputs = append(ssc.inputs, ds)
	return ds
}

// Union merges this stream with the others, like
// StreamingContext.union: each batch's RDD holds the branches'
// partitions side by side, without a shuffle. The branches may be
// rooted at different inputs; the micro-batch scheduler fetches one
// batch per input and the union concatenates the branches' results.
func (ds *DStream) Union(others ...*DStream) *DStream {
	if len(others) == 0 {
		ds.ssc.fail(fmt.Errorf("spark: union needs at least two streams"))
		return ds
	}
	parents := append([]*DStream{ds}, others...)
	for _, p := range parents {
		if p == nil || p.ssc != ds.ssc {
			ds.ssc.fail(fmt.Errorf("spark: union across streaming contexts"))
			return ds
		}
	}
	return &DStream{ssc: ds.ssc, kind: stageUnion, name: "Union", parents: parents}
}

// Map applies a 1:1 transformation.
func (ds *DStream) Map(fn func([]byte) []byte) *DStream {
	if fn == nil {
		ds.ssc.fail(fmt.Errorf("spark: nil map function"))
		return ds
	}
	return ds.narrow(func(TaskContext) (narrowFn, error) {
		return func(rec []byte, emit func([]byte) error) error { return emit(fn(rec)) }, nil
	}).Named("Map")
}

// Filter keeps records matching the predicate.
func (ds *DStream) Filter(fn func([]byte) bool) *DStream {
	if fn == nil {
		ds.ssc.fail(fmt.Errorf("spark: nil filter function"))
		return ds
	}
	return ds.narrow(func(TaskContext) (narrowFn, error) { return keepIf(fn), nil }).Named("Filter")
}

// keepIf passes on the records keep accepts.
func keepIf(keep func([]byte) bool) narrowFn {
	return func(rec []byte, emit func([]byte) error) error {
		if keep(rec) {
			return emit(rec)
		}
		return nil
	}
}

// FlatMap applies a 1:N transformation.
func (ds *DStream) FlatMap(fn func(rec []byte, emit func([]byte))) *DStream {
	if fn == nil {
		ds.ssc.fail(fmt.Errorf("spark: nil flatMap function"))
		return ds
	}
	return ds.narrow(func(TaskContext) (narrowFn, error) {
		// fn's emit cannot fail; the adapter, built once per task, keeps
		// the first downstream error and drops what fn emits after it.
		var next func([]byte) error
		var err error
		emit := func(rec []byte) {
			if err == nil {
				err = next(rec)
			}
		}
		return func(rec []byte, out func([]byte) error) error {
			next = out
			fn(rec, emit)
			return err
		}, nil
	}).Named("FlatMap")
}

// Sample keeps approximately fraction of the records, seeded
// deterministically per batch and partition.
func (ds *DStream) Sample(fraction float64, seed uint64) *DStream {
	if fraction < 0 || fraction > 1 {
		ds.ssc.fail(fmt.Errorf("spark: sample fraction %v outside [0,1]", fraction))
		return ds
	}
	return ds.narrow(func(task TaskContext) (narrowFn, error) {
		rng := rand.New(rand.NewPCG(seed, uint64(task.BatchID)<<32|uint64(task.Partition)))
		return keepIf(func([]byte) bool { return rng.Float64() < fraction }), nil
	}).Named("Sample")
}

// Transform applies a custom per-task stage, the hook the Beam runner
// deploys its stages through. A factory error and an error of the
// function it returns both fail the task and propagate out of the run.
func (ds *DStream) Transform(factory func(task TaskContext) (func(rec []byte, emit func([]byte) error) error, error)) *DStream {
	if factory == nil {
		ds.ssc.fail(fmt.Errorf("spark: nil transform factory"))
		return ds
	}
	return ds.narrow(factory).Named("Transform")
}

func (ds *DStream) narrow(factory narrowFactory) *DStream {
	return &DStream{ssc: ds.ssc, parent: ds, kind: stageNarrow, factory: factory}
}

// Repartition redistributes records round-robin into n partitions,
// introducing a shuffle boundary.
func (ds *DStream) Repartition(n int) *DStream {
	if n <= 0 {
		ds.ssc.fail(fmt.Errorf("spark: repartition to %d partitions", n))
		return ds
	}
	return &DStream{ssc: ds.ssc, parent: ds, kind: stageShuffle, width: n}
}

// RepartitionDefault redistributes to spark.default.parallelism
// partitions, the knob the paper tunes per run.
func (ds *DStream) RepartitionDefault() *DStream {
	return ds.Repartition(ds.ssc.cfg.DefaultParallelism)
}

// outputOp is a registered terminal action run once per batch.
type outputOp struct {
	name   string
	stream *DStream
	open   func(task TaskContext) (recordWriter, error)
}

// recordWriter consumes the records of one output partition.
type recordWriter interface {
	write(rec []byte) error
	close() error
}

// ForeachRecord registers an output operation calling fn for every
// record of every batch, for tests and examples.
func (ds *DStream) ForeachRecord(name string, fn func(rec []byte) error) {
	if fn == nil {
		ds.ssc.fail(fmt.Errorf("spark: nil foreach function"))
		return
	}
	ds.ssc.outputs = append(ds.ssc.outputs, &outputOp{
		name:   name,
		stream: ds,
		open: func(TaskContext) (recordWriter, error) {
			return funcWriter(fn), nil
		},
	})
}

type funcWriter func(rec []byte) error

func (w funcWriter) write(rec []byte) error { return w(rec) }
func (w funcWriter) close() error           { return nil }
