package flink

import (
	"testing"

	"beambench/internal/simcost"
)

// newTestEdgeSender returns a rebalancing sender over width buffered
// targets, outside any job.
func newTestEdgeSender(width, buffer int) (*edgeSender, []chan streamElement) {
	targets := make([]chan streamElement, width)
	for i := range targets {
		targets[i] = make(chan streamElement, buffer)
	}
	return &edgeSender{
		edge:  &runtimeEdge{targets: targets},
		stop:  make(chan struct{}),
		meter: simcost.Disabled().NewMeter(),
	}, targets
}

// TestEdgeSendCopiesNothing pins the ownership rule at the task
// boundary: the downstream subtask receives the very slice the operator
// emitted, and the hop allocates nothing per record — what it costs is
// the NetworkHopPerRecord charge.
func TestEdgeSendCopiesNothing(t *testing.T) {
	e, targets := newTestEdgeSender(1, 256)
	rec := []byte("1\tquery\t2006-03-01 00:00:00\t\t")
	if err := e.Collect(rec); err != nil {
		t.Fatal(err)
	}
	if got := <-targets[0]; &got.rec[0] != &rec[0] {
		t.Error("edge delivered a copy of the record")
	}
	if n := testing.AllocsPerRun(200, func() { _ = e.Collect(rec) }); n != 0 {
		t.Errorf("edgeSender.Collect: %v allocations per record, want 0", n)
	}
}

func BenchmarkEdgeSend(b *testing.B) {
	e, targets := newTestEdgeSender(1, 1024)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range targets[0] {
		}
	}()
	rec := []byte("1\tquery\t2006-03-01 00:00:00\t\t")
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := e.Collect(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(targets[0])
	<-done
}
