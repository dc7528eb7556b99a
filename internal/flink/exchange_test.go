package flink

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"beambench/internal/broker"
	"beambench/internal/keyhash"
	"beambench/internal/simcost"
	"beambench/internal/watermark"
)

// newTestExchange wires the given number of upstream subtasks to width
// downstream inputs over one edge, outside any job.
func newTestExchange(mode partitioning, key KeySelector, senders, width int) ([]*edgeSender, []chan *netBuffer, *OperatorMetrics) {
	inputs := make([]chan *netBuffer, width)
	for i := range inputs {
		inputs[i] = newInput(senders)
	}
	edge := &runtimeEdge{mode: mode, keyFn: key, targets: inputs}
	stop := make(chan struct{})
	meter := simcost.Disabled().NewMeter()
	m := &OperatorMetrics{}
	out := make([]*edgeSender, senders)
	for i := range out {
		out[i] = newEdgeSender(edge, i, stop, meter, 0, m)
	}
	return out, inputs, m
}

// exchangeLog is the receiving side of a test exchange: it records what
// consumeInput delivers, in order.
type exchangeLog struct{ events []string }

func (l *exchangeLog) Collect(rec []byte) error {
	l.events = append(l.events, "rec "+string(rec))
	return nil
}

func (l *exchangeLog) watermark(w time.Time) error {
	if w.Equal(watermark.EndOfTime) {
		l.events = append(l.events, "wm end")
	} else {
		l.events = append(l.events, fmt.Sprintf("wm %d", w.Unix()))
	}
	return nil
}

// drain closes the input — every sender is done — and consumes what was
// shipped on it.
func (l *exchangeLog) drain(t *testing.T, in chan *netBuffer, senders int) {
	t.Helper()
	close(in)
	if err := consumeInput(in, senders, l, l.watermark, func() {}); err != nil {
		t.Fatal(err)
	}
}

var testRecord = []byte("1\tquery\t2006-03-01 00:00:00\t\t")

// TestEdgeSendCopiesNothing pins the ownership rule at the task
// boundary: the downstream subtask receives the very slice the operator
// emitted, and the hop allocates nothing per record, however many
// buffers turn over — what it costs is the NetworkHopPerRecord charge.
func TestEdgeSendCopiesNothing(t *testing.T) {
	senders, inputs, m := newTestExchange(partitionForward, nil, 1, 1)
	e, in := senders[0], inputs[0]
	if err := e.Collect(testRecord); err != nil {
		t.Fatal(err)
	}
	e.flush()
	b := <-in
	if b.n != 1 || &b.els[0].rec[0] != &testRecord[0] {
		t.Error("edge delivered a copy of the record")
	}
	b.recycle()

	before := m.buffersOut.Load()
	if n := testing.AllocsPerRun(100*_bufferCap, func() {
		_ = e.Collect(testRecord)
		select {
		case b := <-in:
			b.recycle()
		default:
		}
	}); n != 0 {
		t.Errorf("edgeSender.Collect: %v allocations per record, want 0", n)
	}
	if turned := m.buffersOut.Load() - before; turned < 100 {
		t.Errorf("only %d buffers turned over during the allocation run, want >= 100", turned)
	}
}

// TestExchangeOrderAcrossBufferBoundaries: a sender's records and
// watermarks arrive in the order it emitted them, wherever the buffer
// boundaries fall.
func TestExchangeOrderAcrossBufferBoundaries(t *testing.T) {
	for _, n := range []int{_bufferCap - 1, _bufferCap, _bufferCap + 1, 3*_bufferCap + 7} {
		t.Run(fmt.Sprintf("elements=%d", n), func(t *testing.T) {
			senders, inputs, m := newTestExchange(partitionForward, nil, 1, 1)
			e, in := senders[0], inputs[0]
			var got exchangeLog
			done := make(chan error, 1)
			go func() { done <- consumeInput(in, 1, &got, got.watermark, func() {}) }()

			var want []string
			for i := range n {
				if i%5 == 4 {
					if err := e.sendWatermark(time.Unix(int64(i), 0)); err != nil {
						t.Fatal(err)
					}
					want = append(want, fmt.Sprintf("wm %d", i))
					continue
				}
				rec := fmt.Sprintf("r%d", i)
				if err := e.Collect([]byte(rec)); err != nil {
					t.Fatal(err)
				}
				want = append(want, "rec "+rec)
			}
			if err := e.sendWatermark(watermark.EndOfTime); err != nil {
				t.Fatal(err)
			}
			want = append(want, "wm end")
			e.flush()
			close(in)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.events, want) {
				t.Errorf("received %d events %q,\nwant %d events %q", len(got.events), got.events, len(want), want)
			}
			if got, want := m.buffersOut.Load(), int64((n+1+_bufferCap-1)/_bufferCap); got != want {
				t.Errorf("shipped %d buffers for %d elements, want %d", got, n+1, want)
			}
		})
	}
}

// TestExchangePartitionedEdgesKeepOneBufferPerTarget: at parallelism 2 a
// hash or rebalance sender fills one buffer per downstream subtask, and
// equal keys still meet in one subtask.
func TestExchangePartitionedEdgesKeepOneBufferPerTarget(t *testing.T) {
	key := func(rec []byte) ([]byte, error) { return rec[:1], nil }
	for _, mode := range []partitioning{partitionHash, partitionRebalance} {
		senders, inputs, m := newTestExchange(mode, key, 1, 2)
		e := senders[0]
		const n = 40 // well under one buffer per target
		for i := range n {
			if err := e.Collect([]byte{"abcd"[i%4], byte('0' + i%10)}); err != nil {
				t.Fatal(err)
			}
		}
		if e.outs[0].cur == nil || e.outs[1].cur == nil || e.outs[0].cur == e.outs[1].cur {
			t.Fatalf("mode %d: targets do not fill a buffer each", mode)
		}
		if shipped := m.buffersOut.Load(); shipped != 0 {
			t.Fatalf("mode %d: %d buffers shipped before any was full", mode, shipped)
		}
		e.flush()
		total := 0
		for target, in := range inputs {
			var got exchangeLog
			got.drain(t, in, 1)
			total += len(got.events)
			for _, ev := range got.events {
				if k := []byte(ev[len("rec "):][:1]); mode == partitionHash && keyhash.Partition(k, 2) != target {
					t.Errorf("key %q reached subtask %d", k, target)
				}
			}
			if mode == partitionRebalance && len(got.events) != n/2 {
				t.Errorf("rebalance target %d received %d records, want %d", target, len(got.events), n/2)
			}
		}
		if total != n || m.buffersOut.Load() != 2 {
			t.Errorf("mode %d: %d records in %d buffers, want %d in 2", mode, total, m.buffersOut.Load(), n)
		}
	}
}

// TestExchangeUnionHoldsWatermarkWhileInputUnflushed: a multi-input
// point combines min-over-senders over what has arrived, so a watermark
// still sitting in one sender's unshipped buffer holds the output
// watermark back; once that buffer ships the minimum moves.
func TestExchangeUnionHoldsWatermarkWhileInputUnflushed(t *testing.T) {
	for _, flushB := range []bool{false, true} {
		senders, inputs, _ := newTestExchange(partitionForward, nil, 2, 1)
		a, b := senders[0], senders[1]
		if err := a.Collect([]byte("a0")); err != nil {
			t.Fatal(err)
		}
		if err := a.sendWatermark(time.Unix(10, 0)); err != nil {
			t.Fatal(err)
		}
		a.flush()
		if err := b.sendWatermark(time.Unix(5, 0)); err != nil {
			t.Fatal(err)
		}
		want := []string{"rec a0"}
		if flushB {
			b.flush()
			want = append(want, "wm 5")
		}
		var got exchangeLog
		got.drain(t, inputs[0], 2)
		if !slices.Equal(got.events, want) {
			t.Errorf("flushB=%v: received %q, want %q", flushB, got.events, want)
		}
	}
}

// oneAtATimeSource emits records one by one, each only after the sink
// has seen the previous one, signalling idleness before every wait the
// way the Kafka source does before a poll.
type oneAtATimeSource struct {
	ctx     *subtaskContext
	records [][]byte
	seen    <-chan struct{}
}

func (s *oneAtATimeSource) Run(out Collector) error {
	for _, rec := range s.records {
		if err := out.Collect(rec); err != nil {
			return err
		}
		s.ctx.idle()
		select {
		case <-s.seen:
		case <-time.After(10 * time.Second):
			return errors.New("record emitted but never delivered: no flush on idle")
		}
	}
	return nil
}

// signalSink signals every record it is handed.
type signalSink struct{ seen chan<- struct{} }

func (s signalSink) Invoke([]byte) error { s.seen <- struct{}{}; return nil }
func (s signalSink) Close() error        { return nil }

// TestIdleFlushDeliversRecordsOneAtATime is the liveness half of the
// exchange contract, and the paced-load shape of its counters: a source
// that emits one record and then waits until the sink has seen it makes
// progress only because every task ships its partly filled buffer when
// it runs out of input — so every record crosses both boundaries in a
// buffer of its own, shipped by an idle flush.
func TestIdleFlushDeliversRecordsOneAtATime(t *testing.T) {
	const n = 50
	cluster := newTestCluster(t, ClusterConfig{})
	env := NewEnvironment(cluster).DisableOperatorChaining()
	seen := make(chan struct{}, 1)
	env.AddSource("src", func(ctx OperatorContext) (Source, error) {
		return &oneAtATimeSource{ctx: ctx.(*subtaskContext), records: records(n), seen: seen}, nil
	}).
		Map("id", func(r []byte) []byte { return r }).
		AddSink("sink", func(OperatorContext) (Sink, error) { return signalSink{seen: seen}, nil })
	res, err := env.Execute("one-at-a-time")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"src", "id"} {
		st, _ := res.OperatorStat(name)
		// One buffer per record plus the one carrying the end-of-input
		// watermark, which a task that finds its input empty (not yet
		// closed) behind that watermark ships as one more idle flush.
		if st.RecordsOut != n || st.IdleFlushes < n || st.IdleFlushes > n+1 {
			t.Errorf("%s: RecordsOut = %d, IdleFlushes = %d, want %d and %d or %d", name, st.RecordsOut, st.IdleFlushes, n, n, n+1)
		}
		if st.BuffersOut != n+1 {
			t.Errorf("%s: BuffersOut = %d, want %d", name, st.BuffersOut, n+1)
		}
	}
	if st, _ := res.OperatorStat("sink"); st.BuffersOut != 0 || st.IdleFlushes != 0 {
		t.Errorf("sink has no outgoing edge but reports %d buffers, %d idle flushes", st.BuffersOut, st.IdleFlushes)
	}
}

// TestExchangeBacklogFillsBuffers: a source reading a preloaded topic
// never runs dry, so the edge behind it ships (nearly) full buffers —
// the rendezvous is paid per buffer, not per record.
func TestExchangeBacklogFillsBuffers(t *testing.T) {
	const n = 5000
	b := broker.New()
	loadTopic(t, b, "in", records(n))
	cluster := newTestCluster(t, ClusterConfig{})
	env := NewEnvironment(cluster).DisableOperatorChaining()
	sink := NewRecordCollector()
	env.AddSource("src", KafkaSource(b, "in", n)).AddSink("sink", CollectSink(sink))
	res, err := env.Execute("backlog")
	if err != nil {
		t.Fatal(err)
	}
	st, _ := res.OperatorStat("src")
	if st.RecordsOut != n || sink.Len() != n {
		t.Fatalf("RecordsOut = %d, sink has %d, want %d", st.RecordsOut, sink.Len(), n)
	}
	if fill := float64(st.RecordsOut) / float64(st.BuffersOut); fill < _bufferCap/2 {
		t.Errorf("mean buffer fill %.1f records (%d buffers), want at least %d under backlog", fill, st.BuffersOut, _bufferCap/2)
	}
}

// TestExchangeDownstreamErrorUnblocksSenders: an operator fails while
// the upstream subtask is blocked waiting for a free buffer; the job
// fails promptly with the operator's error (and, by the package's
// goleak gate, leaves no goroutine behind).
func TestExchangeDownstreamErrorUnblocksSenders(t *testing.T) {
	cluster := newTestCluster(t, ClusterConfig{})
	env := NewEnvironment(cluster)
	boom := errors.New("boom")
	// Every buffer of the channel is shipped and none handed back once the
	// source has emitted this many records; its next Collect blocks.
	const inFlight = _buffersPerChannel * _bufferCap
	var emitted atomic.Int64
	blocked := make(chan struct{})
	env.AddSource("src", SliceSource(records(10*inFlight))).
		Map("count", func(r []byte) []byte {
			if emitted.Add(1) == inFlight {
				close(blocked)
			}
			return r
		}).
		FlatMap("explode", func([]byte, Collector) error {
			<-blocked
			return boom
		}).DisableChaining().
		AddSink("sink", CollectSink(NewRecordCollector()))
	done := make(chan error, 1)
	go func() {
		_, err := env.Execute("blocked-senders")
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Errorf("Execute = %v, want wrapped boom", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("job did not fail: senders still blocked on a free buffer")
	}
	if cluster.FreeSlots() != cluster.TotalSlots() {
		t.Errorf("slots leaked after failure: %d != %d", cluster.FreeSlots(), cluster.TotalSlots())
	}
}

// TestExchangeKeySelectorErrorMidBuffer: a key selector failing on a
// record in the middle of a buffer fails the job with that cause.
func TestExchangeKeySelectorErrorMidBuffer(t *testing.T) {
	cluster := newTestCluster(t, ClusterConfig{})
	env := NewEnvironment(cluster).SetParallelism(2)
	badKey := errors.New("bad key")
	var n atomic.Int64
	env.AddSource("src", SliceSource(records(4*_bufferCap))).
		KeyBy(func(rec []byte) ([]byte, error) {
			if n.Add(1) == _bufferCap+_bufferCap/2 {
				return nil, badKey
			}
			return rec, nil
		}).
		Map("id", func(r []byte) []byte { return r }).
		AddSink("sink", CollectSink(NewRecordCollector()))
	if _, err := env.Execute("badkey"); !errors.Is(err, badKey) {
		t.Errorf("Execute = %v, want wrapped bad key", err)
	}
}

// BenchmarkEdgeSend is the sender's side of the hop alone: Collect per
// record, with the emptied buffers handed back in line.
func BenchmarkEdgeSend(b *testing.B) {
	senders, inputs, _ := newTestExchange(partitionForward, nil, 1, 1)
	e, in := senders[0], inputs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := e.Collect(testRecord); err != nil {
			b.Fatal(err)
		}
		select {
		case buf := <-in:
			buf.recycle()
		default:
		}
	}
}

// BenchmarkExchange is one edge end to end, a producer subtask and a
// consumer subtask: under backlog buffers fill, so the channel hand-off
// is paid once per _bufferCap records; paced, the producer runs dry
// after every record, so every buffer carries one element — the floor a
// rate-limited run sees.
func BenchmarkExchange(b *testing.B) {
	for _, paced := range []bool{false, true} {
		name := "backlog"
		if paced {
			name = "paced"
		}
		b.Run(name, func(b *testing.B) {
			senders, inputs, m := newTestExchange(partitionForward, nil, 1, 1)
			e, in := senders[0], inputs[0]
			done := make(chan error, 1)
			go func() {
				done <- consumeInput(in, 1, discardCollector{}, func(time.Time) error { return nil }, func() {})
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if err := e.Collect(testRecord); err != nil {
					b.Fatal(err)
				}
				if paced {
					e.flush()
				}
			}
			e.flush()
			close(in)
			if err := <-done; err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/float64(m.buffersOut.Load()), "records/buffer")
		})
	}
}
