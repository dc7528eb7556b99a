package broker

import (
	"fmt"
	"testing"
)

func eoiProduce(t *testing.T, b *Broker, topic string, part, n int) {
	t.Helper()
	p := newProducer(t, b, ProducerConfig{
		BatchSize:   1,
		Partitioner: func([]byte, int) int { return part },
	})
	for i := range n {
		if err := p.Send(topic, nil, fmt.Appendf(nil, "%s-%d-%d", topic, part, i)); err != nil {
			t.Fatal(err)
		}
	}
}

// drain admits everything currently pollable and returns the idle flag
// of the last poll.
func eoiDrain(t *testing.T, c *Consumer, e *EndOfInput) bool {
	t.Helper()
	for {
		recs, err := c.Poll()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			e.Admit(r)
		}
		if len(recs) == 0 {
			return true
		}
	}
}

// TestEndOfInputTargetMode walks the contract on a topic that fills in
// two installments: not complete while short of the target, complete
// once the target is appended and drained.
func TestEndOfInputTargetMode(t *testing.T) {
	b := New()
	mustCreate(t, b, "t", TopicConfig{Partitions: 1})
	c := newConsumer(t, b, ConsumerConfig{})
	if err := c.AssignAll("t"); err != nil {
		t.Fatal(err)
	}
	e, err := NewEndOfInput(b, "t", 10, []int{0})
	if err != nil {
		t.Fatal(err)
	}

	eoiProduce(t, b, "t", 0, 6)
	idle := eoiDrain(t, c, e)
	if done, err := e.Complete(c, idle); err != nil || done {
		t.Fatalf("Complete with 6 of 10 records = (%v, %v), want not complete", done, err)
	}

	eoiProduce(t, b, "t", 0, 4)
	if done, _ := e.Complete(c, true); done {
		t.Fatal("Complete before draining the second installment, want not complete")
	}
	idle = eoiDrain(t, c, e)
	if !e.Drained() {
		t.Fatalf("Drained() false after admitting all 10 records")
	}
	if done, err := e.Complete(c, idle); err != nil || !done {
		t.Fatalf("Complete after target drained = (%v, %v), want complete", done, err)
	}
}

// TestEndOfInputSharedTopic covers a source owning one of two
// partitions: completion needs the topic-wide total to reach the target
// AND the local assignment to be drained, and the broker is only
// consulted on idle polls.
func TestEndOfInputSharedTopic(t *testing.T) {
	b := New()
	mustCreate(t, b, "t", TopicConfig{Partitions: 2})
	c := newConsumer(t, b, ConsumerConfig{})
	if err := c.Assign("t", 0, 0); err != nil {
		t.Fatal(err)
	}
	e, err := NewEndOfInput(b, "t", 5, []int{0})
	if err != nil {
		t.Fatal(err)
	}

	eoiProduce(t, b, "t", 0, 3)
	eoiDrain(t, c, e)
	// Local assignment drained, but only 3 of 5 topic-wide.
	if done, _ := e.Complete(c, true); done {
		t.Fatal("Complete with the topic short of its target, want not complete")
	}
	// Non-idle calls must not consult the broker and must report false.
	if done, _ := e.Complete(c, false); done {
		t.Fatal("non-idle Complete reported done")
	}

	eoiProduce(t, b, "t", 1, 2) // the other source's partition fills
	if done, err := e.Complete(c, true); err != nil || !done {
		t.Fatalf("Complete with target reached and assignment drained = (%v, %v), want complete", done, err)
	}
}

// TestEndOfInputSnapshotMode: with target <= 0 the tracker bounds the
// input at construction-time end offsets, Admit rejects later appends,
// and Bound exposes the per-partition caps.
func TestEndOfInputSnapshotMode(t *testing.T) {
	b := New()
	mustCreate(t, b, "t", TopicConfig{Partitions: 1})
	eoiProduce(t, b, "t", 0, 4)

	c := newConsumer(t, b, ConsumerConfig{})
	if err := c.AssignAll("t"); err != nil {
		t.Fatal(err)
	}
	e, err := NewEndOfInput(b, "t", 0, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if bound, ok := e.Bound(0); !ok || bound != 4 {
		t.Fatalf("Bound(0) = (%d, %v), want (4, true)", bound, ok)
	}

	eoiProduce(t, b, "t", 0, 3) // late records, outside the snapshot
	admitted := 0
	for {
		recs, err := c.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		for _, r := range recs {
			if e.Admit(r) {
				admitted++
			}
		}
	}
	if admitted != 4 {
		t.Errorf("admitted %d records, want the 4 snapshot records only", admitted)
	}
	if done, err := e.Complete(c, true); err != nil || !done {
		t.Fatalf("Complete after draining past the snapshot = (%v, %v), want complete", done, err)
	}

	// Target mode exposes no bounds.
	te, err := NewEndOfInput(b, "t", 7, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := te.Bound(0); ok {
		t.Error("target mode reported a snapshot bound")
	}
}

// TestOpenShareDistributesPartitionsRoundRobin checks the share every
// parallel source instance opens: partitions p with p%n == index, each
// from offset 0, an end-of-input tracker over exactly those, and an
// empty share for instances beyond the partition count.
func TestOpenShareDistributesPartitionsRoundRobin(t *testing.T) {
	b := New()
	mustCreate(t, b, "t", TopicConfig{Partitions: 3})
	for p := range 3 {
		eoiProduce(t, b, "t", p, 2)
	}
	for index, want := range [][]string{{"t/0", "t/2"}, {"t/1"}} {
		c, e, err := OpenShare(b, "t", ConsumerConfig{}, index, 2, 6)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Assignments(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("instance %d of 2 assigned %v, want %v", index, got, want)
		}
		if e.Empty() {
			t.Errorf("instance %d of 2 reports an empty share", index)
		}
		idle := eoiDrain(t, c, e)
		if done, err := e.Complete(c, idle); err != nil || !done {
			t.Errorf("instance %d: Complete after draining its share = (%v, %v), want complete", index, done, err)
		}
	}
	if _, e, err := OpenShare(b, "t", ConsumerConfig{}, 3, 4, 6); err != nil || !e.Empty() {
		t.Errorf("instance 3 of 4 over 3 partitions: Empty = %v, err = %v; want an empty share", e != nil && e.Empty(), err)
	}
	if _, _, err := OpenShare(b, "missing", ConsumerConfig{}, 0, 1, 0); err == nil {
		t.Error("unknown topic accepted")
	}
}
