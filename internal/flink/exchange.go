package flink

import (
	"fmt"
	"math"
	"time"

	"beambench/internal/keyhash"
	"beambench/internal/simcost"
	"beambench/internal/watermark"
)

// The two constants of the exchange (see the package comment).
const (
	// _bufferCap is the number of elements — records and watermark
	// control events — one network buffer holds; a buffer is ~2.5 KB.
	_bufferCap = 64
	// _buffersPerChannel is the fixed set of buffers one (sender, target)
	// channel owns, the analogue of Flink's exclusive buffers: one being
	// filled, one being drained, and two of slack so that neither side
	// parks at every turnover (with two, a Flink-Beam Identity cell runs
	// ~8% slower). A sender with none free waits for the receiver to
	// hand one back, which is the backpressure.
	_buffersPerChannel = 4
)

// streamElement is one unit travelling a network channel: a data record,
// or a watermark control event (ctrl) carrying the watermark as Unix
// nanoseconds under watermark.Nanos, EndOfTime being MaxInt64.
type streamElement struct {
	rec  []byte
	wm   int64
	ctrl bool
}

// netBuffer is one network buffer. Watermarks flow through the dataflow
// itself — stamped where event time is assigned, forwarded by every
// task, combined min-over-senders at every multi-input point — so a
// buffer carries the sending subtask's identity for the receiver's
// MinTracker, and the channel it goes back to once drained.
type netBuffer struct {
	els    [_bufferCap]streamElement
	n      int
	sender int
	free   chan<- *netBuffer
}

// recycle hands a drained buffer back to its sender. It never blocks:
// free has room for every buffer of the channel.
func (b *netBuffer) recycle() {
	b.n = 0
	b.free <- b
}

// newInput returns the input channel of one subtask fed by the given
// number of upstream subtasks. It has room for every buffer those
// senders own, so shipping a buffer never blocks; what blocks is waiting
// for a free one.
func newInput(senders int) chan *netBuffer {
	return make(chan *netBuffer, senders*_buffersPerChannel)
}

// outChannel is the sending side of one (sender, target) channel.
type outChannel struct {
	target chan<- *netBuffer
	free   <-chan *netBuffer
	// cur is the buffer being filled; nil, or holding at least one element.
	cur *netBuffer
}

// edgeSender ships records across a task boundary: it charges the
// per-record network hop — the charge is the whole modelled cost of the
// hop; the record itself is immutable and crosses as it is — and appends
// the record to the buffer of the downstream subtask chosen by the
// edge's partitioning. Watermarks are control events: they broadcast to
// every downstream subtask under this sender's identity, in order with
// the records before them, so each receiver can hold its combined
// watermark at the minimum over all senders.
type edgeSender struct {
	mode    partitioning
	keyFn   KeySelector
	idx     int
	rr      int
	lastWM  int64
	outs    []outChannel
	stop    <-chan struct{}
	meter   *simcost.Meter
	hopCost time.Duration
	// metrics is the operator at the sending chain's tail, which the
	// buffer counters are attributed to.
	metrics *OperatorMetrics
}

// newEdgeSender wires subtask idx of the sending chain to every target
// of the edge, allocating the channels' buffers once.
func newEdgeSender(e *runtimeEdge, idx int, stop <-chan struct{}, meter *simcost.Meter, hopCost time.Duration, m *OperatorMetrics) *edgeSender {
	s := &edgeSender{
		mode:    e.mode,
		keyFn:   e.keyFn,
		idx:     idx,
		lastWM:  math.MinInt64,
		outs:    make([]outChannel, len(e.targets)),
		stop:    stop,
		meter:   meter,
		hopCost: hopCost,
		metrics: m,
	}
	bufs := make([]netBuffer, len(e.targets)*_buffersPerChannel)
	for i, target := range e.targets {
		free := make(chan *netBuffer, _buffersPerChannel)
		for j := range _buffersPerChannel {
			b := &bufs[i*_buffersPerChannel+j]
			b.sender = e.senderBase + idx
			b.free = free
			free <- b
		}
		s.outs[i] = outChannel{target: target, free: free}
	}
	return s
}

func (e *edgeSender) Collect(rec []byte) error {
	e.meter.Charge(e.hopCost)

	var target int
	switch e.mode {
	case partitionForward:
		target = e.idx % len(e.outs)
	case partitionHash:
		key, err := e.keyFn(rec)
		if err != nil {
			return fmt.Errorf("flink: key selector: %w", err)
		}
		target = keyhash.Partition(key, len(e.outs))
	default:
		target = e.rr % len(e.outs)
		e.rr++
	}
	return e.put(&e.outs[target], streamElement{rec: rec})
}

// sendWatermark broadcasts one watermark control event; regressions and
// repeats are dropped (the control path is monotone per sender).
func (e *edgeSender) sendWatermark(w time.Time) error {
	ns := watermark.Nanos(w)
	if ns <= e.lastWM {
		return nil
	}
	e.lastWM = ns
	for i := range e.outs {
		if err := e.put(&e.outs[i], streamElement{wm: ns, ctrl: true}); err != nil {
			return err
		}
	}
	return nil
}

// put appends one element to the channel's current buffer, first
// waiting for a free buffer when the last one was shipped, and ships the
// buffer once full.
func (e *edgeSender) put(o *outChannel, el streamElement) error {
	b := o.cur
	if b == nil {
		select {
		case b = <-o.free:
		case <-e.stop:
			return errStopped
		}
		o.cur = b
	}
	b.els[b.n] = el
	b.n++
	if b.n == _bufferCap {
		e.ship(o)
	}
	return nil
}

// ship sends the current buffer downstream; see newInput for why the
// send cannot block.
func (e *edgeSender) ship(o *outChannel) {
	o.target <- o.cur
	o.cur = nil
	e.metrics.buffersOut.Add(1)
}

// flush ships every partly filled buffer and reports whether there was
// one.
func (e *edgeSender) flush() bool {
	shipped := false
	for i := range e.outs {
		if o := &e.outs[i]; o.cur != nil {
			e.ship(o)
			shipped = true
		}
	}
	return shipped
}
