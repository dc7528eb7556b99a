package flink

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"beambench/internal/metrics"
	"beambench/internal/simcost"
	"beambench/internal/watermark"
)

// errStopped is the internal signal that the job is shutting down; it is
// never surfaced to callers.
var errStopped = errors.New("flink: job stopped")

// JobResult summarizes a finished job.
type JobResult struct {
	// JobName is the submitted name.
	JobName string
	// Duration is the wall-clock execution time including deployment.
	Duration time.Duration
	// Attempts counts executions: 1 plus the restarts consumed.
	Attempts int
	// Operators holds per-operator record counters from the last attempt.
	Operators []OperatorStats
	// Tasks is the number of physical tasks (chains) the job ran as.
	Tasks int
}

// OperatorStat returns the stats of the named operator.
func (r *JobResult) OperatorStat(name string) (OperatorStats, bool) {
	for _, s := range r.Operators {
		if s.Name == name {
			return s, true
		}
	}
	return OperatorStats{}, false
}

// chain is a group of operators fused into one physical task.
type chain struct {
	ops         []*operator
	parallelism int
}

func (c *chain) head() *operator { return c.ops[0] }
func (c *chain) tail() *operator { return c.ops[len(c.ops)-1] }

// buildChains groups the logical operators into physical tasks using
// Flink's chaining rule: forward-connected operators of equal
// parallelism fuse, unless chaining is disabled for the job or operator.
// Multi-input operators (Union) always head their own chain.
func (env *Environment) buildChains() []*chain {
	chainOf := make(map[*operator]*chain, len(env.ops))
	var chains []*chain
	for _, op := range env.ops {
		if len(op.inputs) == 1 && env.canChain(op.inputs[0], op) {
			c := chainOf[op.inputs[0].from]
			if c != nil && c.tail() == op.inputs[0].from {
				c.ops = append(c.ops, op)
				chainOf[op] = c
				continue
			}
		}
		c := &chain{ops: []*operator{op}, parallelism: op.parallelism}
		chains = append(chains, c)
		chainOf[op] = c
	}
	return chains
}

func (env *Environment) canChain(e inEdge, down *operator) bool {
	return env.chainingEnabled &&
		down.chainable &&
		e.part == partitionForward &&
		e.from.parallelism == down.parallelism &&
		len(e.from.outputs) == 1
}

// runtimeChain wires one chain into the running job.
type runtimeChain struct {
	c      *chain
	inputs []chan *netBuffer // one per subtask; nil for source chains
	edges  []*runtimeEdge
	// senders is the number of distinct upstream subtasks feeding this
	// chain's input channels (summed over input edges); each gets a slot
	// in every subtask's watermark MinTracker.
	senders int
	// pendingUp counts open input edges; the last finishing upstream
	// chain closes the input channels.
	pendingUp int32
	wg        sync.WaitGroup
}

// runtimeEdge carries records from this chain to one downstream chain.
type runtimeEdge struct {
	mode  partitioning
	keyFn KeySelector
	// senderBase is the first global sender index this edge's subtasks
	// occupy in the destination's MinTracker.
	senderBase int
	dst        *runtimeChain
	targets    []chan *netBuffer
}

// jobRuntime tracks shutdown across subtasks.
type jobRuntime struct {
	stop chan struct{}

	mu  sync.Mutex
	err error
}

func (rt *jobRuntime) fail(err error) {
	if err == nil || errors.Is(err, errStopped) {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.err == nil {
		rt.err = err
		close(rt.stop)
	}
}

func (rt *jobRuntime) failure() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.err
}

// Execute deploys and runs the job to completion (all sources exhausted
// and sinks closed), applying the cluster's restart strategy on failure.
func (env *Environment) Execute(jobName string) (*JobResult, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	if !env.cluster.Running() {
		return nil, ErrClusterStopped
	}
	// Wall-clock here times the job for JobResult.Duration telemetry;
	// it never reaches record bytes, which carry their own event time.
	//beamvet:allow determinism duration telemetry, not record output
	start := time.Now()
	attempts := 0
	for {
		attempts++
		tasks, err := env.runOnce()
		if err == nil {
			return &JobResult{
				JobName:   jobName,
				Duration:  time.Since(start),
				Attempts:  attempts,
				Operators: env.operatorStats(),
				Tasks:     tasks,
			}, nil
		}
		if attempts > env.cluster.cfg.RestartAttempts {
			return nil, fmt.Errorf("flink: job %q failed after %d attempt(s): %w", jobName, attempts, err)
		}
	}
}

func (env *Environment) operatorStats() []OperatorStats {
	out := make([]OperatorStats, 0, len(env.ops))
	for _, op := range env.ops {
		out = append(out, op.metrics.snapshot())
	}
	return out
}

// runOnce deploys and runs one attempt of the job, returning the number
// of physical tasks (chains) it ran as.
func (env *Environment) runOnce() (int, error) {
	for _, op := range env.ops {
		op.metrics.reset()
	}
	// Pre-register telemetry stages in graph order, so reports list
	// operators as the job declares them rather than in the (reversed)
	// chain-composition order subtasks resolve them in.
	if m := env.cluster.cfg.Metrics; m != nil {
		for _, op := range env.ops {
			m.Stage(op.name)
		}
	}
	chains := env.buildChains()

	maxPar := 1
	for _, op := range env.ops {
		if op.parallelism > maxPar {
			maxPar = op.parallelism
		}
	}
	slots, err := env.cluster.jm.acquire(maxPar)
	if err != nil {
		return 0, err
	}
	defer env.cluster.jm.release(slots)

	// Deployment cost: client -> Job Manager -> Task Managers.
	deployMeter := env.cluster.cfg.Sim.NewMeter()
	deployMeter.Charge(env.cluster.cfg.Costs.EngineJobStart)
	deployMeter.Flush()

	// Wire runtime chains and channels.
	rcs := make([]*runtimeChain, len(chains))
	rcOf := make(map[*operator]*runtimeChain, len(env.ops))
	for i, c := range chains {
		rc := &runtimeChain{c: c}
		if len(c.head().inputs) > 0 {
			rc.inputs = make([]chan *netBuffer, c.parallelism)
		}
		rcs[i] = rc
		for _, op := range c.ops {
			rcOf[op] = rc
		}
	}
	for _, rc := range rcs {
		head := rc.c.head()
		for _, in := range head.inputs {
			up := rcOf[in.from]
			mode := in.part
			if mode == partitionForward && up.c.parallelism != rc.c.parallelism {
				mode = partitionRebalance
			}
			up.edges = append(up.edges, &runtimeEdge{
				mode:       mode,
				keyFn:      in.key,
				senderBase: rc.senders,
				dst:        rc,
				targets:    rc.inputs,
			})
			rc.senders += up.c.parallelism
			rc.pendingUp++
		}
		for j := range rc.inputs {
			rc.inputs[j] = newInput(rc.senders)
		}
	}

	rt := &jobRuntime{stop: make(chan struct{})}
	var all sync.WaitGroup
	for _, rc := range rcs {
		rc.wg.Add(rc.c.parallelism)
		for idx := range rc.c.parallelism {
			all.Add(1)
			go func(rc *runtimeChain, idx int) {
				defer all.Done()
				defer rc.wg.Done()
				if err := env.runSubtask(rt, rc, idx); err != nil {
					rt.fail(err)
				}
			}(rc, idx)
		}
		// Close each downstream chain's channels once every input edge's
		// upstream chain is done — with multiple inputs (Union), the last
		// finishing upstream signals end of stream.
		all.Add(1)
		go func(rc *runtimeChain) {
			defer all.Done()
			rc.wg.Wait()
			for _, e := range rc.edges {
				if atomic.AddInt32(&e.dst.pendingUp, -1) == 0 {
					for _, ch := range e.dst.inputs {
						close(ch)
					}
				}
			}
		}(rc)
	}
	all.Wait()
	return len(chains), rt.failure()
}

// subtaskContext implements OperatorContext for one subtask.
type subtaskContext struct {
	idx     int
	par     int
	meter   *simcost.Meter
	metrics *metrics.Collector
	markers []*stageMarker
	// idle is the subtask's flush-on-idle hook, set once its outgoing
	// edges are wired: whoever feeds the chain — consumeInput, or a
	// source of this package — calls it before waiting for input.
	idle func()
}

func (c *subtaskContext) SubtaskIndex() int      { return c.idx }
func (c *subtaskContext) Parallelism() int       { return c.par }
func (c *subtaskContext) Charge(d time.Duration) { c.meter.Charge(d) }

func (c *subtaskContext) flush() {
	for _, m := range c.markers {
		m.flush()
	}
	c.meter.Flush()
}

// newMarker returns a per-subtask throughput marker for one operator, or
// nil when metrics collection is disabled.
func (c *subtaskContext) newMarker(name string) *stageMarker {
	if c.metrics == nil {
		return nil
	}
	m := &stageMarker{stage: c.metrics.Stage(name)}
	c.markers = append(c.markers, m)
	return m
}

// markerFlushEvery is how many records a subtask batches locally before
// one Mark call: the telemetry hot path stays a local increment, with a
// clock read and two atomics every 256 records.
const markerFlushEvery = 256

// stageMarker batches one subtask's marks for one stage. Methods on a
// nil marker are no-ops (collection disabled).
type stageMarker struct {
	stage   *metrics.Stage
	pending int64
}

func (m *stageMarker) mark() {
	if m == nil {
		return
	}
	m.pending++
	if m.pending >= markerFlushEvery {
		m.stage.Mark(m.pending)
		m.pending = 0
	}
}

func (m *stageMarker) flush() {
	if m == nil || m.pending == 0 {
		return
	}
	m.stage.Mark(m.pending)
	m.pending = 0
}

// wmHandler advances the watermark at one point of a chain's control
// path; handlers are composed back to front like collectors, ending in
// the broadcast to the chain's outgoing edges.
type wmHandler func(w time.Time) error

// emitterFunc adapts a wmHandler into the WatermarkEmitter a timestamp
// assigner injects through.
type emitterFunc func(w time.Time) error

func (f emitterFunc) EmitWatermark(w time.Time) error { return f(w) }

// runSubtask executes one parallel instance of a chain.
func (env *Environment) runSubtask(rt *jobRuntime, rc *runtimeChain, idx int) error {
	ctx := &subtaskContext{
		idx:     idx,
		par:     rc.c.parallelism,
		meter:   env.cluster.cfg.Sim.NewMeter(),
		metrics: env.cluster.cfg.Metrics,
	}
	defer ctx.flush()
	// One span per subtask attempt, on a track naming the chain (head
	// operator) and parallel instance.
	span := env.cluster.cfg.Trace.Span("flink/"+rc.c.head().name+"/subtask-"+strconv.Itoa(idx), "subtask")
	defer span.End()

	// Tail collector: either the network edges or nothing (sink ends the
	// chain and is handled inside the composed pipeline).
	var tail Collector = discardCollector{}
	var senders []*edgeSender
	if len(rc.edges) > 0 {
		cols := make([]Collector, len(rc.edges))
		for i, e := range rc.edges {
			s := newEdgeSender(e, idx, rt.stop, ctx.meter, env.cluster.cfg.Costs.NetworkHopPerRecord, rc.c.tail().metrics)
			senders = append(senders, s)
			cols[i] = s
		}
		if len(cols) == 1 {
			tail = cols[0]
		} else {
			tail = multiCollector(cols)
		}
	}
	// Flush-on-idle: whenever this subtask is about to block on its own
	// input, it ships what it has buffered, so a record never waits in a
	// partly filled buffer for input that is not there yet.
	flushEdges := func() bool {
		shipped := false
		for _, s := range senders {
			shipped = s.flush() || shipped
		}
		return shipped
	}
	ctx.idle = func() {
		if flushEdges() {
			rc.c.tail().metrics.idleFlushes.Add(1)
		}
	}
	// The control path's tail: forward the subtask's output watermark on
	// every outgoing edge (broadcast — every downstream subtask tracks
	// this sender). The chain's output watermark also feeds a gauge the
	// obs monitor samples for per-operator watermark lag; subtasks of
	// one chain share the gauge (an atomic, last write wins).
	wmGauge := env.cluster.cfg.Trace.Gauge("watermark-lag/" + rc.c.tail().name)
	wmTail := wmHandler(func(w time.Time) error {
		wmGauge.SetTime(w)
		if w.Equal(watermark.EndOfTime) {
			env.cluster.cfg.Trace.Instant("drain/"+rc.c.tail().name, "end-of-input")
		}
		for _, s := range senders {
			if err := s.sendWatermark(w); err != nil {
				return err
			}
		}
		return nil
	})

	// Compose the chain back to front, collecting sinks to close and
	// keyed operators to flush at end of input. The watermark control
	// path composes alongside: a keyed stage's OnWatermark fires released
	// panes into the stage's own output before the watermark moves on
	// downstream.
	var (
		sinks []Sink
		keyed []*keyedCollector
	)
	closeSinks := func() error {
		var firstErr error
		for _, s := range sinks {
			if err := s.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}

	current := tail
	currentWM := wmTail
	ops := rc.c.ops
	for i := len(ops) - 1; i >= 0; i-- {
		st, err := env.buildStage(ops[i], ctx, current, currentWM)
		if err != nil {
			_ = closeSinks()
			return err
		}
		if st.sink != nil {
			sinks = append(sinks, st.sink)
		}
		current = st.col
		if k := st.keyed; k != nil {
			keyed = append(keyed, k)
			next := currentWM
			currentWM = func(w time.Time) error {
				if err := k.onWatermark(w); err != nil {
					return err
				}
				return next(w)
			}
		}
	}

	head := ops[0]
	var runErr error
	switch head.kind {
	case opSource:
		src, err := head.sourceFactory(ctx)
		if err != nil {
			runErr = fmt.Errorf("flink: open source %q: %w", head.name, err)
		} else {
			runErr = src.Run(current)
		}
	case opTransform, opSink:
		runErr = consumeInput(rc.inputs[idx], rc.senders, current, currentWM, ctx.idle)
	default:
		runErr = fmt.Errorf("flink: unknown operator kind %d", head.kind)
	}

	// On clean end of input, flush keyed operators upstream-first so
	// their emissions flow through the downstream stages of the chain,
	// then propagate the end-of-stream watermark so downstream tasks
	// finalize this sender while other senders may still stream, and
	// ship the last, partly filled buffers behind it.
	for i := len(keyed) - 1; i >= 0 && runErr == nil; i-- {
		runErr = keyed[i].flush()
	}
	if runErr == nil {
		runErr = wmTail(watermark.EndOfTime)
	}
	if runErr == nil {
		flushEdges()
	}

	closeErr := closeSinks()
	if runErr != nil && !errors.Is(runErr, errStopped) {
		return runErr
	}
	if closeErr != nil {
		return closeErr
	}
	return nil
}

// consumeInput drains one subtask's input channel buffer by buffer,
// element by element: data records feed the composed collector chain;
// watermark control events advance the per-sender MinTracker, and each
// combined (min-over-senders) advance is delivered through the chain's
// control path. The sole head stage of an unfused stateful operator
// fires its panes there, exactly like a mid-chain one. Before blocking
// on an empty channel it calls idle, and every drained buffer goes back
// to its sender.
func consumeInput(in <-chan *netBuffer, senders int, c Collector, wm wmHandler, idle func()) error {
	tracker := watermark.NewMinTracker(senders)
	var delivered time.Time
	for {
		var (
			b  *netBuffer
			ok bool
		)
		select {
		case b, ok = <-in:
		default:
			idle()
			b, ok = <-in
		}
		if !ok {
			return nil
		}
		for i := range b.els[:b.n] {
			el := &b.els[i]
			if !el.ctrl {
				if err := c.Collect(el.rec); err != nil {
					return err
				}
				continue
			}
			if el.wm == math.MaxInt64 {
				tracker.Finalize(b.sender)
			} else {
				tracker.Advance(b.sender, watermark.FromNanos(el.wm))
			}
			if combined := tracker.Combined(); combined.After(delivered) {
				delivered = combined
				if err := wm(combined); err != nil {
					return err
				}
			}
		}
		b.recycle()
	}
}

// builtStage is one operator instantiated for a subtask: the collector
// feeding it, plus its sink or keyed operator when it is one.
type builtStage struct {
	col   Collector
	sink  Sink
	keyed *keyedCollector
}

// buildStage instantiates one operator of the chain for this subtask.
// nextWM is the downstream control path, which timestamp assigners
// inject their generated watermarks into.
func (env *Environment) buildStage(op *operator, ctx *subtaskContext, next Collector, nextWM wmHandler) (builtStage, error) {
	switch op.kind {
	case opSource:
		// A source heads its own chain and is run directly; its stage is
		// just the emission counter its Run collector goes through.
		return builtStage{col: &countingCollector{next: next, metrics: op.metrics, marker: ctx.newMarker(op.name)}}, nil
	case opTransform:
		counting := &countingCollector{next: next, metrics: op.metrics, marker: ctx.newMarker(op.name)}
		switch {
		case op.keyedFactory != nil:
			inst, err := op.keyedFactory(ctx)
			if err != nil {
				return builtStage{}, fmt.Errorf("flink: open operator %q: %w", op.name, err)
			}
			k := &keyedCollector{op: inst, emit: counting.Collect, metrics: op.metrics}
			return builtStage{col: k, keyed: k}, nil
		case op.assignFactory != nil:
			fn, err := op.assignFactory(ctx, emitterFunc(nextWM))
			if err != nil {
				return builtStage{}, fmt.Errorf("flink: open operator %q: %w", op.name, err)
			}
			return builtStage{col: &processCollector{fn: fn, out: counting, metrics: op.metrics}}, nil
		default:
			fn, err := op.processFactory(ctx)
			if err != nil {
				return builtStage{}, fmt.Errorf("flink: open operator %q: %w", op.name, err)
			}
			return builtStage{col: &processCollector{fn: fn, out: counting, metrics: op.metrics}}, nil
		}
	case opSink:
		sink, err := op.sinkFactory(ctx)
		if err != nil {
			return builtStage{}, fmt.Errorf("flink: open sink %q: %w", op.name, err)
		}
		return builtStage{
			col:  &sinkCollector{sink: sink, metrics: op.metrics, marker: ctx.newMarker(op.name)},
			sink: sink,
		}, nil
	default:
		return builtStage{}, fmt.Errorf("flink: operator %q cannot appear mid-chain", op.name)
	}
}

// discardCollector terminates chains that end in a sink (the sink
// collector never forwards) and tolerates dead-end transforms in tests.
type discardCollector struct{}

func (discardCollector) Collect([]byte) error { return nil }

// countingCollector counts emissions of an operator before forwarding.
type countingCollector struct {
	next    Collector
	metrics *OperatorMetrics
	marker  *stageMarker
}

func (c *countingCollector) Collect(rec []byte) error {
	c.metrics.incOut()
	c.marker.mark()
	return c.next.Collect(rec)
}

// processCollector applies a transform to each incoming record.
type processCollector struct {
	fn      ProcessFunc
	out     Collector
	metrics *OperatorMetrics
}

func (c *processCollector) Collect(rec []byte) error {
	c.metrics.incIn()
	return c.fn(rec, c.out)
}

// keyedCollector feeds a keyed operator. emit is the stage's output
// collector, bound once per subtask: the same value reaches every
// Process, OnWatermark and Flush call, so the operator can park it
// without a per-record allocation.
type keyedCollector struct {
	op      watermark.Operator
	emit    func([]byte) error
	metrics *OperatorMetrics
}

func (c *keyedCollector) Collect(rec []byte) error {
	c.metrics.incIn()
	return c.op.Process(rec, c.emit)
}

func (c *keyedCollector) onWatermark(w time.Time) error { return c.op.OnWatermark(w, c.emit) }

func (c *keyedCollector) flush() error { return c.op.Flush(c.emit) }

// sinkCollector delivers records to a sink instance.
type sinkCollector struct {
	sink    Sink
	metrics *OperatorMetrics
	marker  *stageMarker
}

func (c *sinkCollector) Collect(rec []byte) error {
	c.metrics.incIn()
	c.marker.mark()
	return c.sink.Invoke(rec)
}

// multiCollector fans a record out to several collectors.
type multiCollector []Collector

func (m multiCollector) Collect(rec []byte) error {
	for _, c := range m {
		if err := c.Collect(rec); err != nil {
			return err
		}
	}
	return nil
}
