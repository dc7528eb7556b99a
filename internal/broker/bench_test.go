package broker

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// appendLog appends n entries to a fresh partition in batches of
// batchSize, reusing one batch buffer as Producer.flushBatch does.
func appendLog(tb testing.TB, n, batchSize int) *partition {
	p := newPartition()
	batch := make([]storedRecord, batchSize)
	value := []byte("1\tquery\t2006-03-01 00:00:00\t\t")
	now := time.Now()
	for i := range batch {
		batch[i] = storedRecord{value: value, ts: now}
	}
	for done := 0; done < n; done += len(batch) {
		if n-done < len(batch) {
			batch = batch[:n-done]
		}
		if _, err := p.append(batch); err != nil {
			tb.Fatal(err)
		}
	}
	return p
}

// allocatedBytes reports the heap bytes fn allocates.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// BenchmarkPartitionAppend builds a log of the given size per
// iteration. B/record must not grow with the size: a chunked log
// allocates each entry's slot once and never copies a stored entry.
func BenchmarkPartitionAppend(b *testing.B) {
	for _, n := range []int{5_000, 50_000} {
		b.Run(fmt.Sprintf("records=%d/batch=500", n), func(b *testing.B) {
			bytes := allocatedBytes(func() {
				b.ResetTimer()
				for range b.N {
					appendLog(b, n, 500)
				}
				b.StopTimer()
			})
			records := float64(b.N) * float64(n)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/records, "ns/record")
			b.ReportMetric(float64(bytes)/records, "B/record")
		})
	}
}

// TestAppendBytesPerRecordFlat is the benchmark's claim as a test: a
// 50k-record log costs no more bytes per record than a 5k-record one,
// and both stay under two entry sizes (the first chunk's doublings are
// the only slack).
func TestAppendBytesPerRecordFlat(t *testing.T) {
	perRecord := func(n int) float64 {
		return float64(allocatedBytes(func() { appendLog(t, n, 500) })) / float64(n)
	}
	small, large := perRecord(5_000), perRecord(50_000)
	entry := float64(unsafe.Sizeof(storedRecord{}))
	if large > small*1.05 || small > 2*entry {
		t.Errorf("append allocated %.1f B/record at 5k and %.1f at 50k (entry = %.0f B): want flat and under two entries", small, large, entry)
	}
}

// BenchmarkFetch reads a 50k-record log in polls of 500.
func BenchmarkFetch(b *testing.B) {
	const n = 50_000
	p := appendLog(b, n, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for off := int64(0); off < n; off += 500 {
			recs, err := p.fetch("t", 0, off, 500)
			if err != nil || len(recs) != 500 {
				b.Fatalf("fetch at %d: %d records, %v", off, len(recs), err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*n), "ns/record")
}
