package apex

import (
	"testing"

	"beambench/internal/simcost"
)

// TestPublishCopiesNothing pins the ownership rule at the buffer
// server: subscribers receive the slices the operator emitted. A window
// publish allocates its per-partition tuple lists and nothing per
// tuple; a per-tuple publish allocates the one-tuple batch it is — that
// publication per tuple is the Beam runner's mechanism — and no copy of
// the tuple. What a publish costs is the BufferServer* charges.
func TestPublishCopiesNothing(t *testing.T) {
	const n = 4096
	target := make(chan streamBatch, 512)
	ss := &streamSender{
		def:     &streamDef{name: "s"},
		targets: []chan streamBatch{target},
		meter:   simcost.Disabled().NewMeter(),
		stop:    make(chan struct{}),
	}
	tuple := []byte("1\tquery\t2006-03-01 00:00:00\t\t")
	window := make([][]byte, n)
	for i := range window {
		window[i] = tuple
	}

	if err := ss.publishWindow(window); err != nil {
		t.Fatal(err)
	}
	batch := <-target
	if len(batch.tuples) != n {
		t.Fatalf("window batch holds %d tuples, want %d", len(batch.tuples), n)
	}
	for _, got := range batch.tuples {
		if &got[0] != &tuple[0] {
			t.Fatal("window publish delivered a copy of the tuple")
		}
	}
	if got := testing.AllocsPerRun(10, func() {
		_ = ss.publishWindow(window)
		<-target
	}); got > n/50 {
		t.Errorf("publishWindow of %d tuples: %v allocations, want none per tuple", n, got)
	}

	if err := ss.publishTuple(tuple); err != nil {
		t.Fatal(err)
	}
	if batch := <-target; len(batch.tuples) != 1 || &batch.tuples[0][0] != &tuple[0] {
		t.Error("per-tuple publish delivered a copy of the tuple")
	}
	if got := testing.AllocsPerRun(200, func() {
		_ = ss.publishTuple(tuple)
		<-target
	}); got != 1 {
		t.Errorf("publishTuple: %v allocations, want 1 (the one-tuple batch)", got)
	}
}
