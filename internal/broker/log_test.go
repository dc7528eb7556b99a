package broker

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// boundarySizes are the log lengths that exercise every chunk edge: one
// short of a chunk, exactly one, one over, and several plus a remainder.
var boundarySizes = []int{chunkSize - 1, chunkSize, chunkSize + 1, 3*chunkSize + 7}

func recKey(i int) []byte   { return []byte(fmt.Sprintf("k%d", i%7)) }
func recValue(i int) []byte { return []byte(fmt.Sprintf("value-%06d", i)) }

// fill sends n numbered records to partition 0 of topic "t" in batches
// of batch and flushes.
func fill(t *testing.T, b *Broker, n, batch int) {
	t.Helper()
	p := newProducer(t, b, ProducerConfig{BatchSize: batch, Linger: -1, Partitioner: func([]byte, int) int { return 0 }})
	for i := range n {
		if err := p.Send("t", recKey(i), recValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkNumbered verifies recs are records 0..n-1 of fill, in order,
// with their offsets and non-decreasing timestamps.
func checkNumbered(t *testing.T, what string, recs []Record, n int) {
	t.Helper()
	if len(recs) != n {
		t.Fatalf("%s: %d records, want %d", what, len(recs), n)
	}
	for i, r := range recs {
		if r.Offset != int64(i) || r.Topic != "t" || r.Partition != 0 ||
			!bytes.Equal(r.Key, recKey(i)) || !bytes.Equal(r.Value, recValue(i)) {
			t.Fatalf("%s: record %d = {%s/%d@%d %q %q}", what, i, r.Topic, r.Partition, r.Offset, r.Key, r.Value)
		}
		if i > 0 && r.Timestamp.Before(recs[i-1].Timestamp) {
			t.Fatalf("%s: timestamp regresses at %d", what, i)
		}
	}
}

// TestLogAcrossChunkBoundaries reads a log of every boundary size back
// through each read path — Poll, Records, VisitRecords, Timestamps,
// TimeSpan and a snapshot save+load — and expects the same records.
func TestLogAcrossChunkBoundaries(t *testing.T) {
	for _, n := range boundarySizes {
		for _, batch := range []int{1, 7, 500, 5000} {
			t.Run(fmt.Sprintf("n=%d/batch=%d", n, batch), func(t *testing.T) {
				b := New()
				mustCreate(t, b, "t", TopicConfig{Partitions: 1})
				fill(t, b, n, batch)

				c := newConsumer(t, b, ConsumerConfig{MaxPollRecords: 300})
				if err := c.Assign("t", 0, 0); err != nil {
					t.Fatal(err)
				}
				var polled []Record
				for {
					recs, err := c.Poll()
					if err != nil {
						t.Fatal(err)
					}
					if len(recs) == 0 {
						break
					}
					polled = append(polled, recs...)
				}
				checkNumbered(t, "Poll", polled, n)

				recs, err := b.Records("t", 0)
				if err != nil {
					t.Fatal(err)
				}
				checkNumbered(t, "Records", recs, n)

				var visited []Record
				if err := b.VisitRecords("t", 0, func(r Record) error {
					visited = append(visited, r)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				checkNumbered(t, "VisitRecords", visited, n)

				stamps, err := b.Timestamps("t", 0)
				if err != nil {
					t.Fatal(err)
				}
				if len(stamps) != n {
					t.Fatalf("Timestamps: %d, want %d", len(stamps), n)
				}
				for i, ts := range stamps {
					if !ts.Equal(recs[i].Timestamp) {
						t.Fatalf("Timestamps[%d] = %v, Records says %v", i, ts, recs[i].Timestamp)
					}
				}
				first, last, count, err := b.TimeSpan("t")
				if err != nil {
					t.Fatal(err)
				}
				if count != int64(n) || !first.Equal(stamps[0]) || !last.Equal(stamps[n-1]) {
					t.Fatalf("TimeSpan = %v..%v (%d), want %v..%v (%d)", first, last, count, stamps[0], stamps[n-1], n)
				}

				var buf bytes.Buffer
				if err := b.SaveSnapshot(&buf); err != nil {
					t.Fatal(err)
				}
				restored := New()
				if err := restored.LoadSnapshot(&buf); err != nil {
					t.Fatal(err)
				}
				again, err := restored.Records("t", 0)
				if err != nil {
					t.Fatal(err)
				}
				checkNumbered(t, "restored Records", again, n)
				for i := range again {
					if !again[i].Timestamp.Equal(recs[i].Timestamp) {
						t.Fatalf("restored timestamp %d = %v, want %v", i, again[i].Timestamp, recs[i].Timestamp)
					}
				}
			})
		}
	}
}

// TestFetchAliasesLog pins the ownership rule on the read side: every
// read path hands out views of the same stored bytes, and nothing the
// log does later — filling the chunk, growing the first chunk, starting
// new chunks — moves or changes them.
func TestFetchAliasesLog(t *testing.T) {
	b := New()
	mustCreate(t, b, "t", TopicConfig{Partitions: 1})
	fill(t, b, 3, 1)

	poll := func() []Record {
		t.Helper()
		c := newConsumer(t, b, ConsumerConfig{})
		if err := c.Assign("t", 0, 0); err != nil {
			t.Fatal(err)
		}
		recs, err := c.Poll()
		if err != nil || len(recs) < 3 {
			t.Fatalf("poll: %d records, %v", len(recs), err)
		}
		return recs[:3]
	}
	first, second := poll(), poll()
	bulk, err := b.Records("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		for _, other := range [][]Record{second, bulk} {
			if &first[i].Key[0] != &other[i].Key[0] || &first[i].Value[0] != &other[i].Value[0] {
				t.Fatalf("record %d: two reads returned different backing bytes", i)
			}
		}
	}

	// Appending far past the first chunk leaves the views held above
	// where and what they were.
	p := newProducer(t, b, ProducerConfig{BatchSize: 100})
	for i := 3; i < 2*chunkSize+5; i++ {
		if err := p.Send("t", recKey(i), recValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	checkNumbered(t, "held views after growth", first, 3)
	after := poll()
	for i := range first {
		if &first[i].Value[0] != &after[i].Value[0] {
			t.Fatalf("record %d moved when the log grew", i)
		}
	}
}

// TestInterleavedProducersAcrossChunks has several producers with
// different batch sizes append to one partition at once: every record
// arrives, each producer's records keep their order, and offsets are
// dense across the chunk boundaries the batches straddle.
func TestInterleavedProducersAcrossChunks(t *testing.T) {
	const perProducer = chunkSize + 301
	batches := []int{1, 3, 64, 500}
	b := New()
	mustCreate(t, b, "t", TopicConfig{Partitions: 1})

	var wg sync.WaitGroup
	errs := make([]error, len(batches))
	for id, batch := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := b.NewProducer(ProducerConfig{BatchSize: batch})
			if err != nil {
				errs[id] = err
				return
			}
			for i := range perProducer {
				if err := p.Send("t", []byte{byte(id)}, recValue(i)); err != nil {
					errs[id] = err
					return
				}
			}
			errs[id] = p.Close()
		}()
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("producer %d: %v", id, err)
		}
	}

	recs, err := b.Records("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != perProducer*len(batches) {
		t.Fatalf("%d records, want %d", len(recs), perProducer*len(batches))
	}
	next := make([]int, len(batches))
	for i, r := range recs {
		if r.Offset != int64(i) {
			t.Fatalf("offset %d at index %d", r.Offset, i)
		}
		id := int(r.Key[0])
		if !bytes.Equal(r.Value, recValue(next[id])) {
			t.Fatalf("producer %d: got %q, want record %d", id, r.Value, next[id])
		}
		next[id]++
		if i > 0 && r.Timestamp.Before(recs[i-1].Timestamp) {
			t.Fatalf("timestamp regresses at %d", i)
		}
	}
}

// TestAppendConcurrentWithPollWait lets a consumer that blocks in
// PollWait read, and keep, aliased records while a producer appends
// across chunk boundaries: it must see every record exactly once, in
// order, and what it kept must still read the same at the end.
func TestAppendConcurrentWithPollWait(t *testing.T) {
	const n = 2*chunkSize + 5
	b := New()
	mustCreate(t, b, "t", TopicConfig{Partitions: 1})
	c := newConsumer(t, b, ConsumerConfig{MaxPollRecords: 100})
	if err := c.Assign("t", 0, 0); err != nil {
		t.Fatal(err)
	}

	type result struct {
		recs []Record
		err  error
	}
	done := make(chan result, 1)
	go func() {
		var got []Record
		for len(got) < n {
			recs, err := c.PollWait(10 * time.Second)
			if err != nil || len(recs) == 0 {
				done <- result{got, fmt.Errorf("PollWait after %d records: %d new, %v", len(got), len(recs), err)}
				return
			}
			got = append(got, recs...)
		}
		done <- result{got, nil}
	}()

	// Small batches so the consumer is woken, and blocks again, often.
	fill(t, b, n, 3)
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	checkNumbered(t, "PollWait", res.recs, n)
}

// TestFetchAllocatesOnlyTheResultSlice: one allocation per fetch
// whatever the batch size — no per-record copy of key or value.
func TestFetchAllocatesOnlyTheResultSlice(t *testing.T) {
	b := New()
	mustCreate(t, b, "t", TopicConfig{Partitions: 1})
	fill(t, b, 3*chunkSize, 500)
	p, err := b.partition("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, max := range []int{1, 500, 2*chunkSize + 1} {
		if got := testing.AllocsPerRun(50, func() {
			if recs, err := p.fetch("t", 0, chunkSize-3, max); err != nil || len(recs) != max {
				t.Fatalf("fetch: %d records, %v", len(recs), err)
			}
		}); got > 1 {
			t.Errorf("fetch of %d records: %v allocations, want at most 1", max, got)
		}
	}
}

// TestSendAllocatesOneClonePerField: in steady state — the batch buffer
// grown, the topic-partition known — a Send allocates the clone of each
// non-empty field and nothing else; flushes reuse the batch buffer and
// the log allocates one chunk per chunkSize records.
func TestSendAllocatesOneClonePerField(t *testing.T) {
	key, value := []byte("key"), []byte("some value")
	for _, tc := range []struct {
		name       string
		key, value []byte
		want       float64
	}{
		{"key and value", key, value, 2},
		{"value only", nil, value, 1},
		{"neither", nil, nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := New()
			mustCreate(t, b, "t", TopicConfig{Partitions: 1})
			p := newProducer(t, b, ProducerConfig{BatchSize: 100})
			send := func() {
				if err := p.Send("t", tc.key, tc.value); err != nil {
					t.Fatal(err)
				}
			}
			for range 100 {
				send() // grow the batch buffer and run the first flush
			}
			// 4*chunkSize sends start four chunks: 4 allocations over
			// 4096 runs, which AllocsPerRun's integer average drops.
			if got := testing.AllocsPerRun(4*chunkSize, send); got != tc.want {
				t.Errorf("Send: %v allocations per record, want %v", got, tc.want)
			}
		})
	}
}
