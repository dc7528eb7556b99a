package apex

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"beambench/internal/keyhash"
	"beambench/internal/metrics"
	"beambench/internal/obs"
	"beambench/internal/simcost"
	"beambench/internal/watermark"
	"beambench/internal/yarn"
)

// errAttemptStopped signals cooperative shutdown inside one attempt.
var errAttemptStopped = errors.New("apex: attempt stopped")

// _streamChannelBuffer is the buffer-server subscriber queue depth, in
// batches.
const _streamChannelBuffer = 8

// LaunchConfig controls the physical deployment of an application.
type LaunchConfig struct {
	// Parallelism is the partition count per operator, configured in
	// the paper through YARN vcores plus a DAG attribute (Section
	// III-A2). Defaults to 1.
	Parallelism int
	// ContainerMemoryMB sizes each operator container; defaults to 2048.
	ContainerMemoryMB int
	// WindowTuples is the streaming-window length in tuples; defaults
	// to 500. Apex uses 500ms time windows; a tuple-count window keeps
	// simulated runs deterministic at equivalent granularity.
	WindowTuples int
	// CheckpointWindows checkpoints operator state every N windows;
	// defaults to 30 (Apex's default checkpoint interval in windows).
	CheckpointWindows int
	// RestartAttempts is how many times STRAM redeploys a failed
	// application; defaults to 0.
	RestartAttempts int
	// Costs is the latency model; zero charges nothing.
	Costs simcost.Costs
	// Sim scales the cost model; nil charges nothing.
	Sim *simcost.Simulator
	// Metrics, when non-nil, receives per-operator throughput while the
	// application runs: every partition marks its operator's record
	// count at streaming-window boundaries. Marks are cumulative like
	// monitoring counters: with RestartAttempts > 0 they include the
	// work a failed attempt performed, unlike the per-attempt
	// OperatorStats counters, which reset on every attempt. Nil
	// disables collection.
	Metrics *metrics.Collector
	// Trace, when non-nil, records a span per operator partition and a
	// watermark gauge per operator. Nil disables tracing.
	Trace *obs.Tracer
}

func (c *LaunchConfig) validate() error {
	if c.Parallelism == 0 {
		c.Parallelism = 1
	}
	if c.ContainerMemoryMB == 0 {
		c.ContainerMemoryMB = 2048
	}
	if c.WindowTuples == 0 {
		c.WindowTuples = 500
	}
	if c.CheckpointWindows == 0 {
		c.CheckpointWindows = 30
	}
	if c.Parallelism < 0 || c.ContainerMemoryMB < 0 || c.WindowTuples < 0 ||
		c.CheckpointWindows < 0 || c.RestartAttempts < 0 {
		return fmt.Errorf("apex: negative launch configuration %+v", *c)
	}
	return nil
}

// OperatorStats counts tuples through one logical operator across its
// partitions.
type OperatorStats struct {
	Name string

	in      atomic.Int64
	out     atomic.Int64
	windows atomic.Int64
}

func (s *OperatorStats) reset() {
	s.in.Store(0)
	s.out.Store(0)
	s.windows.Store(0)
}

// OperatorReport is an immutable snapshot of one operator's counters.
type OperatorReport struct {
	Name      string
	TuplesIn  int64
	TuplesOut int64
	Windows   int64
}

// AppResult summarizes a finished application.
type AppResult struct {
	AppName string
	// Duration is the wall-clock run time including deployment.
	Duration time.Duration
	// Attempts is 1 plus the restarts consumed.
	Attempts int
	// Containers is the number of YARN containers per attempt,
	// including the STRAM Application Master.
	Containers int
	// Operators holds per-operator counters from the last attempt.
	Operators []OperatorReport
}

// OperatorReportFor returns the report of the named operator.
func (r *AppResult) OperatorReportFor(name string) (OperatorReport, bool) {
	for _, o := range r.Operators {
		if o.Name == name {
			return o, true
		}
	}
	return OperatorReport{}, false
}

// Stram is the Streaming Application Manager: the YARN Application
// Master coordinating an application's containers.
type Stram struct {
	cluster *yarn.Cluster
	app     *Application
	cfg     LaunchConfig

	done chan struct{}
	res  *AppResult
	err  error
}

// Launch validates and deploys an application on the YARN cluster and
// starts it asynchronously; use Await to wait for completion.
func Launch(cluster *yarn.Cluster, app *Application, cfg LaunchConfig) (*Stram, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := app.validate(); err != nil {
		return nil, err
	}
	if !cluster.Running() {
		return nil, yarn.ErrStopped
	}
	s := &Stram{cluster: cluster, app: app, cfg: cfg, done: make(chan struct{})}
	need := 1 + s.totalPartitions()
	if cluster.TotalVCores() < need {
		return nil, fmt.Errorf("%w: application needs %d, cluster has %d",
			yarn.ErrInsufficientVCores, need, cluster.TotalVCores())
	}
	go s.run()
	return s, nil
}

// Await blocks until the application finishes and returns its result.
func (s *Stram) Await() (*AppResult, error) {
	<-s.done
	return s.res, s.err
}

// partitionsOf resolves an operator's effective partition count.
func (s *Stram) partitionsOf(op *opDef) int {
	if op.partitions > 0 {
		return op.partitions
	}
	return s.cfg.Parallelism
}

// totalPartitions sums the partition counts of all operators.
func (s *Stram) totalPartitions() int {
	total := 0
	for _, name := range s.app.order {
		total += s.partitionsOf(s.app.ops[name])
	}
	return total
}

func (s *Stram) run() {
	defer close(s.done)
	// Wall-clock here times the run for AppResult.Duration telemetry;
	// it never reaches record bytes, which carry their own event time.
	//beamvet:allow determinism duration telemetry, not record output
	start := time.Now()
	attempts := 0
	for {
		attempts++
		err := s.runAttempt()
		if err == nil {
			s.res = &AppResult{
				AppName:    s.app.name,
				Duration:   time.Since(start),
				Attempts:   attempts,
				Containers: 1 + s.totalPartitions(),
				Operators:  s.operatorReports(),
			}
			return
		}
		if attempts > s.cfg.RestartAttempts {
			s.err = fmt.Errorf("apex: application %q failed after %d attempt(s): %w",
				s.app.name, attempts, err)
			return
		}
	}
}

func (s *Stram) operatorReports() []OperatorReport {
	out := make([]OperatorReport, 0, len(s.app.order))
	for _, name := range s.app.order {
		st := s.app.ops[name].stats
		out = append(out, OperatorReport{
			Name:      st.Name,
			TuplesIn:  st.in.Load(),
			TuplesOut: st.out.Load(),
			Windows:   st.windows.Load(),
		})
	}
	return out
}

// attempt wires one deployment of the application.
type attempt struct {
	stram *Stram
	yapp  *yarn.Application
	stop  chan struct{}

	mu  sync.Mutex
	err error

	// inbox[operator][partition] is the buffer-server subscriber queue:
	// one merged queue per operator partition, fed by all of the
	// operator's input streams.
	inbox map[string][]chan streamBatch
	// fromBase[stream] offsets the publishing partition index into the
	// destination operator's global sender-id space (stream order, then
	// partition order), so per-input watermark tracking can tell the
	// senders of different input streams apart.
	fromBase map[*streamDef]int
}

func (at *attempt) fail(err error) {
	if err == nil || errors.Is(err, errAttemptStopped) {
		return
	}
	at.mu.Lock()
	defer at.mu.Unlock()
	if at.err == nil {
		at.err = err
		close(at.stop)
	}
}

func (at *attempt) failure() error {
	at.mu.Lock()
	defer at.mu.Unlock()
	return at.err
}

// streamBatch is one buffer-server publication: tuples plus an optional
// streaming-window boundary marker, tagged with the publishing upstream
// sender (global over the subscriber's input streams). A batch with wm
// set is a watermark control event instead: it carries no tuples and
// advances the sender's input watermark at the subscriber
// (watermark.EndOfTime finalizes it).
type streamBatch struct {
	tuples    [][]byte
	windowEnd bool
	from      int
	wm        time.Time
}

func (s *Stram) runAttempt() error {
	for _, name := range s.app.order {
		s.app.ops[name].stats.reset()
	}
	// Pre-register telemetry stages in DAG insertion order so reports
	// list operators deterministically regardless of deployment races.
	if m := s.cfg.Metrics; m != nil {
		for _, name := range s.app.order {
			m.Stage(name)
		}
	}

	// STRAM itself is the Application Master container.
	yapp, err := s.cluster.SubmitApplication(s.app.name, yarn.Resource{MemoryMB: 1024, VCores: 1})
	if err != nil {
		return err
	}
	defer yapp.Finish()

	deploy := s.cfg.Sim.NewMeter()
	deploy.Charge(s.cfg.Costs.EngineJobStart)
	deploy.Charge(s.cfg.Costs.YarnContainerStart) // the AM container

	at := &attempt{
		stram:    s,
		yapp:     yapp,
		stop:     make(chan struct{}),
		inbox:    make(map[string][]chan streamBatch),
		fromBase: make(map[*streamDef]int),
	}

	// One container per operator partition.
	type deployment struct {
		op   *opDef
		part int
		ctr  *yarn.Container
	}
	var deployments []deployment
	for _, name := range s.app.order {
		op := s.app.ops[name]
		parts := s.partitionsOf(op)
		for p := range parts {
			ctr, err := yapp.AllocateContainer(yarn.Resource{MemoryMB: s.cfg.ContainerMemoryMB, VCores: 1})
			if err != nil {
				return fmt.Errorf("apex: deploy %s[%d]: %w", name, p, err)
			}
			deploy.Charge(s.cfg.Costs.YarnContainerStart)
			deployments = append(deployments, deployment{op: op, part: p, ctr: ctr})
		}
		if len(op.inStreams) > 0 {
			chans := make([]chan streamBatch, parts)
			for p := range chans {
				chans[p] = make(chan streamBatch, _streamChannelBuffer)
			}
			at.inbox[name] = chans
			base := 0
			for _, in := range op.inStreams {
				at.fromBase[in] = base
				base += s.partitionsOf(s.app.ops[in.from])
			}
		}
	}
	deploy.Flush()

	// Per-operator upstream completion tracking closes the merged
	// subscriber queues: a queue closes once every upstream partition of
	// every input stream has finished.
	opWG := make(map[string]*sync.WaitGroup, len(s.app.ops))
	for _, name := range s.app.order {
		op := s.app.ops[name]
		if len(op.inStreams) == 0 {
			continue
		}
		n := 0
		for _, in := range op.inStreams {
			n += s.partitionsOf(s.app.ops[in.from])
		}
		wg := &sync.WaitGroup{}
		wg.Add(n)
		opWG[name] = wg
	}

	var all sync.WaitGroup
	for _, d := range deployments {
		all.Add(1)
		go func(d deployment) {
			defer all.Done()
			defer func() {
				for _, out := range d.op.outStreams {
					opWG[out.to].Done()
				}
			}()
			if err := at.runPartition(d.op, d.part, d.ctr); err != nil {
				at.fail(err)
			}
		}(d)
	}
	for name, wg := range opWG {
		all.Add(1)
		go func(name string, wg *sync.WaitGroup) {
			defer all.Done()
			wg.Wait()
			for _, ch := range at.inbox[name] {
				close(ch)
			}
		}(name, wg)
	}
	all.Wait()
	return at.failure()
}

// partitionContext implements OperatorContext.
type partitionContext struct {
	idx     int
	count   int
	inParts int
	meter   *simcost.Meter
}

func (c *partitionContext) PartitionIndex() int    { return c.idx }
func (c *partitionContext) PartitionCount() int    { return c.count }
func (c *partitionContext) InputPartitions() int   { return c.inParts }
func (c *partitionContext) Charge(d time.Duration) { c.meter.Charge(d) }

func (at *attempt) runPartition(op *opDef, part int, ctr *yarn.Container) error {
	s := at.stram
	inParts := 0
	for _, in := range op.inStreams {
		inParts += s.partitionsOf(s.app.ops[in.from])
	}
	ctx := &partitionContext{idx: part, count: s.partitionsOf(op), inParts: inParts, meter: s.cfg.Sim.NewMeter()}
	defer ctx.meter.Flush()

	// One span per operator partition attempt.
	span := s.cfg.Trace.Span("apex/"+op.name+"/p"+strconv.Itoa(part), "partition")
	defer span.End()

	// Telemetry handle, resolved once per partition; marks happen at
	// streaming-window boundaries, so the per-tuple path stays clean.
	var stage *metrics.Stage
	if s.cfg.Metrics != nil {
		stage = s.cfg.Metrics.Stage(op.name)
	}

	senders := make([]*streamSender, len(op.outStreams))
	for i, out := range op.outStreams {
		senders[i] = &streamSender{
			def:     out,
			fromIdx: at.fromBase[out] + part,
			part:    part,
			// Parallel partitioning (Apex's partition locality): an
			// equal-width non-keyed stream forwards partition-locally
			// instead of round-robin, so each partition chain keeps its
			// upstream arrival order end to end. That order preservation is
			// what keeps the watermark a timestamp assigner stamps from its
			// partition's stream sound all the way to the keyed shuffle —
			// a round-robin split/re-merge between equal-width operators
			// would interleave racing senders and unbound the event-time
			// disorder the assigner's bound promises to cover.
			oneToOne: ctx.count == len(at.inbox[out.to]),
			targets:  at.inbox[out.to],
			meter:    ctx.meter,
			costs:    s.cfg.Costs,
			stop:     at.stop,
		}
	}

	switch op.kind {
	case kindInput:
		return at.runInputPartition(op, ctx, ctr, senders, stage)
	case kindGeneric:
		return at.runGenericPartition(op, ctx, ctr, senders, stage)
	case kindOutput:
		return at.runOutputPartition(op, ctx, ctr, stage)
	default:
		return fmt.Errorf("apex: unknown operator kind %d", op.kind)
	}
}

func (at *attempt) runInputPartition(op *opDef, ctx *partitionContext, ctr *yarn.Container, senders []*streamSender, stage *metrics.Stage) error {
	s := at.stram
	inst, err := op.input(ctx)
	if err != nil {
		return fmt.Errorf("apex: setup input %q[%d]: %w", op.name, ctx.idx, err)
	}
	defer func() { _ = inst.Teardown() }()

	var (
		window  [][]byte
		windows int64
	)
	flush := func() error {
		for _, snd := range senders {
			if err := snd.publishWindow(window); err != nil {
				return err
			}
		}
		stage.Mark(int64(len(window)))
		op.stats.windows.Add(1)
		windows++
		if windows%int64(s.cfg.CheckpointWindows) == 0 {
			ctx.meter.Charge(s.cfg.Costs.Checkpoint)
		}
		window = window[:0]
		return nil
	}

	for {
		if !ctr.Alive() {
			return fmt.Errorf("apex: container %s of %q[%d] killed", ctr.ID, op.name, ctx.idx)
		}
		select {
		case <-at.stop:
			return errAttemptStopped
		default:
		}
		done, err := inst.NextTuples(s.cfg.WindowTuples-len(window), func(t []byte) error {
			op.stats.out.Add(1)
			window = append(window, t)
			return nil
		})
		if err != nil {
			return fmt.Errorf("apex: input %q[%d]: %w", op.name, ctx.idx, err)
		}
		if len(window) >= s.cfg.WindowTuples || (done && len(window) > 0) {
			if err := flush(); err != nil {
				return err
			}
		}
		if done {
			// The source met its end-of-input contract: finalize this
			// partition's watermark downstream so no subscriber keeps
			// waiting for it.
			for _, snd := range senders {
				if err := snd.publishWatermark(watermark.EndOfTime); err != nil {
					return err
				}
			}
			return nil
		}
	}
}

func (at *attempt) runGenericPartition(op *opDef, ctx *partitionContext, ctr *yarn.Container, senders []*streamSender, stage *metrics.Stage) error {
	s := at.stram
	inst, err := op.generic(ctx)
	if err != nil {
		return fmt.Errorf("apex: setup operator %q[%d]: %w", op.name, ctx.idx, err)
	}
	defer func() { _ = inst.Teardown() }()

	in := at.inbox[op.name][ctx.idx]
	var (
		pending   [][]byte
		windows   int64
		sinceMark int64
	)
	emit := func(t []byte) error {
		op.stats.out.Add(1)
		sinceMark++
		// Per-tuple downstream streams publish immediately; windowed
		// streams accumulate until the window boundary.
		for _, snd := range senders {
			if snd.def.perTuple {
				if err := snd.publishTuple(t); err != nil {
					return err
				}
			}
		}
		if !allPerTuple(senders) {
			pending = append(pending, t)
		}
		return nil
	}

	// Keyed operators (KeyedOp) receive the combined (min-over-senders)
	// input watermark as it advances and are flushed at end of stream;
	// watermark emitters (the timestamp assigner) generate it.
	keyed, isKeyed := inst.(watermark.Operator)
	we, watermarkEmitter := inst.(WatermarkEmitter)
	tracker := watermark.NewMinTracker(max(ctx.inParts, 1))
	// A parallel-partitioned (1:1) input stream routes tuples and
	// watermarks partition-locally, so the senders of its non-matching
	// partitions will never publish here: pre-finalize their tracker
	// slots or the combined minimum would wait on them forever.
	base := 0
	for _, in := range op.inStreams {
		fromParts := s.partitionsOf(s.app.ops[in.from])
		if in.keyFn == nil && fromParts == ctx.count {
			for p := range fromParts {
				if p != ctx.idx {
					tracker.Finalize(base + p)
				}
			}
		}
		base += fromParts
	}
	var delivered, toForward time.Time
	// forwardWM publishes the pending outgoing watermark. It runs only
	// right after pending tuples have published, so no subscriber sees a
	// watermark ahead of the records it covers.
	forwardWM := func() error {
		if toForward.IsZero() {
			return nil
		}
		w := toForward
		toForward = time.Time{}
		for _, snd := range senders {
			if err := snd.publishWatermark(w); err != nil {
				return err
			}
		}
		return nil
	}
	wmGauge := s.cfg.Trace.Gauge("watermark-lag/" + op.name)
	onWatermark := func(w time.Time) error {
		if !w.After(delivered) {
			return nil
		}
		delivered = w
		wmGauge.SetTime(w)
		if w.Equal(watermark.EndOfTime) {
			s.cfg.Trace.Instant("drain/"+op.name, "end-of-input")
		}
		if isKeyed {
			if err := keyed.OnWatermark(w, emit); err != nil {
				return fmt.Errorf("apex: operator %q[%d] watermark: %w", op.name, ctx.idx, err)
			}
		}
		if w.After(toForward) {
			toForward = w
		}
		return nil
	}
	for batch := range in {
		if !ctr.Alive() {
			return fmt.Errorf("apex: container %s of %q[%d] killed", ctr.ID, op.name, ctx.idx)
		}
		if !batch.wm.IsZero() {
			// Watermark control event: advance (or finalize) the sender's
			// input watermark and react if the combined minimum moved.
			if batch.wm.Equal(watermark.EndOfTime) {
				tracker.Finalize(batch.from)
			} else {
				tracker.Advance(batch.from, batch.wm)
			}
			if err := onWatermark(tracker.Combined()); err != nil {
				return err
			}
			if len(pending) > 0 {
				// The watermark released panes into the buffer (or per-tuple
				// arrivals were still accumulating): publish them now, so the
				// control event's effects reach downstream without waiting for
				// the next streaming-window boundary — tuple traffic may have
				// paused entirely.
				for _, snd := range senders {
					if !snd.def.perTuple {
						if err := snd.publishWindow(pending); err != nil {
							return err
						}
					}
				}
				pending = pending[:0]
				stage.Mark(sinceMark)
				sinceMark = 0
			}
			// Everything emitted so far has published: the watermark may
			// follow at once. Deferring to the next window boundary would
			// stall idle partitions, which see no tuple traffic at all.
			if err := forwardWM(); err != nil {
				return err
			}
			continue
		}
		for _, t := range batch.tuples {
			op.stats.in.Add(1)
			if err := inst.Process(t, emit); err != nil {
				return fmt.Errorf("apex: operator %q[%d]: %w", op.name, ctx.idx, err)
			}
		}
		if watermarkEmitter {
			if err := onWatermark(we.CurrentWatermark()); err != nil {
				return err
			}
		}
		if batch.windowEnd {
			for _, snd := range senders {
				if snd.def.perTuple {
					if err := snd.publishMarker(); err != nil {
						return err
					}
					continue
				}
				if err := snd.publishWindow(pending); err != nil {
					return err
				}
			}
			pending = pending[:0]
			// The window's tuples have published; the watermark covering
			// them may follow.
			if err := forwardWM(); err != nil {
				return err
			}
			stage.Mark(sinceMark)
			sinceMark = 0
			op.stats.windows.Add(1)
			windows++
			if windows%int64(s.cfg.CheckpointWindows) == 0 {
				ctx.meter.Charge(s.cfg.Costs.Checkpoint)
			}
		}
	}
	// End of stream: keyed operators release their remaining state (the
	// upstream sources met the broker.EndOfInput contract), then a
	// trailing partial window publishes without a boundary marker, and
	// the partition finalizes its watermark downstream.
	if isKeyed {
		if err := keyed.Flush(emit); err != nil {
			return fmt.Errorf("apex: operator %q[%d] end stream: %w", op.name, ctx.idx, err)
		}
	}
	if len(pending) > 0 {
		for _, snd := range senders {
			if !snd.def.perTuple {
				if err := snd.publishWindow(pending); err != nil {
					return err
				}
			}
		}
	}
	stage.Mark(sinceMark)
	for _, snd := range senders {
		if err := snd.publishWatermark(watermark.EndOfTime); err != nil {
			return err
		}
	}
	return nil
}

func (at *attempt) runOutputPartition(op *opDef, ctx *partitionContext, ctr *yarn.Container, stage *metrics.Stage) error {
	s := at.stram
	inst, err := op.output(ctx)
	if err != nil {
		return fmt.Errorf("apex: setup output %q[%d]: %w", op.name, ctx.idx, err)
	}
	defer func() { _ = inst.Teardown() }()

	in := at.inbox[op.name][ctx.idx]
	var (
		windows        int64
		sinceWindowEnd int
	)
	for batch := range in {
		if !ctr.Alive() {
			return fmt.Errorf("apex: container %s of %q[%d] killed", ctr.ID, op.name, ctx.idx)
		}
		if !batch.wm.IsZero() {
			continue // sinks need no event-time progress
		}
		for _, t := range batch.tuples {
			op.stats.in.Add(1)
			sinceWindowEnd++
			if err := inst.Process(t); err != nil {
				return fmt.Errorf("apex: output %q[%d]: %w", op.name, ctx.idx, err)
			}
		}
		if batch.windowEnd {
			if err := inst.EndWindow(); err != nil {
				return fmt.Errorf("apex: output %q[%d] end window: %w", op.name, ctx.idx, err)
			}
			stage.Mark(int64(sinceWindowEnd))
			sinceWindowEnd = 0
			op.stats.windows.Add(1)
			windows++
			if windows%int64(s.cfg.CheckpointWindows) == 0 {
				ctx.meter.Charge(s.cfg.Costs.Checkpoint)
			}
		}
	}
	if sinceWindowEnd > 0 {
		if err := inst.EndWindow(); err != nil {
			return fmt.Errorf("apex: output %q[%d] final window: %w", op.name, ctx.idx, err)
		}
		stage.Mark(int64(sinceWindowEnd))
		op.stats.windows.Add(1)
	}
	return nil
}

func allPerTuple(senders []*streamSender) bool {
	for _, snd := range senders {
		if !snd.def.perTuple {
			return false
		}
	}
	return len(senders) > 0
}

// streamSender is one upstream partition's buffer-server publisher for
// one stream. fromIdx is the sender's global id in the destination
// operator's input space (stream base + partition index).
type streamSender struct {
	def      *streamDef
	fromIdx  int
	part     int
	oneToOne bool
	targets  []chan streamBatch
	rr       int
	lastWM   time.Time
	meter    *simcost.Meter
	costs    simcost.Costs
	stop     <-chan struct{}
}

// partitionOf selects the downstream partition for one tuple: keyed
// hash routing when the stream is keyed (SetStreamKeyed),
// partition-local forwarding between equal-width operators (parallel
// partitioning), round-robin otherwise.
func (ss *streamSender) partitionOf(t []byte) (int, error) {
	if ss.def.keyFn != nil {
		key, err := ss.def.keyFn(t)
		if err != nil {
			return 0, fmt.Errorf("apex: stream %q key: %w", ss.def.name, err)
		}
		return keyhash.Partition(key, len(ss.targets)), nil
	}
	if ss.oneToOne {
		return ss.part, nil
	}
	i := ss.rr % len(ss.targets)
	ss.rr++
	return i, nil
}

// publishWindow splits the window's tuples over the downstream
// partitions — round-robin, or by key hash on a keyed stream — and
// publishes one batch (with window marker) to every partition, matching
// the engine's windowed buffer-server mode.
func (ss *streamSender) publishWindow(tuples [][]byte) error {
	parts := make([][][]byte, len(ss.targets))
	for _, t := range tuples {
		i, err := ss.partitionOf(t)
		if err != nil {
			return err
		}
		parts[i] = append(parts[i], t)
	}
	for i, target := range ss.targets {
		if err := ss.send(target, streamBatch{tuples: parts[i], windowEnd: true, from: ss.fromIdx}, len(parts[i])); err != nil {
			return err
		}
	}
	return nil
}

// publishTuple publishes one tuple unbatched — one buffer-server
// round trip per tuple, the Beam runner's output mode.
func (ss *streamSender) publishTuple(t []byte) error {
	i, err := ss.partitionOf(t)
	if err != nil {
		return err
	}
	return ss.send(ss.targets[i], streamBatch{tuples: [][]byte{t}, from: ss.fromIdx}, 1)
}

// publishWatermark publishes a watermark control event downstream: to
// the sender's own partition on a parallel-partitioned (1:1) stream —
// matching where its tuples go, so the receivers' pre-finalized sender
// slots stay silent — broadcast to every partition otherwise.
// Per-sender monotone: repeats and regressions are dropped, so the
// downstream MinTracker only ever sees advances.
func (ss *streamSender) publishWatermark(w time.Time) error {
	if !w.After(ss.lastWM) {
		return nil
	}
	ss.lastWM = w
	if ss.def.keyFn == nil && ss.oneToOne {
		return ss.send(ss.targets[ss.part], streamBatch{wm: w, from: ss.fromIdx}, 0)
	}
	for _, target := range ss.targets {
		if err := ss.send(target, streamBatch{wm: w, from: ss.fromIdx}, 0); err != nil {
			return err
		}
	}
	return nil
}

// publishMarker broadcasts a window boundary to all partitions.
func (ss *streamSender) publishMarker() error {
	for _, target := range ss.targets {
		if err := ss.send(target, streamBatch{windowEnd: true, from: ss.fromIdx}, 0); err != nil {
			return err
		}
	}
	return nil
}

func (ss *streamSender) send(target chan streamBatch, b streamBatch, n int) error {
	ss.meter.Charge(ss.costs.BufferServerPublish)
	ss.meter.Charge(time.Duration(n) * ss.costs.BufferServerPerRecord)
	select {
	case target <- b:
		return nil
	case <-ss.stop:
		return errAttemptStopped
	}
}
