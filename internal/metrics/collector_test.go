package metrics

import (
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"beambench/internal/stats"
)

func TestThroughputWindows(t *testing.T) {
	var tp Throughput
	base := time.Unix(1_000_000, 0)
	tp.MarkAt(base, 10)
	tp.MarkAt(base.Add(300*time.Millisecond), 5)
	tp.MarkAt(base.Add(1*time.Second), 20)
	tp.MarkAt(base.Add(5*time.Second), 1)

	if got := tp.Total(); got != 36 {
		t.Fatalf("Total = %d, want 36", got)
	}
	ws := tp.Windows()
	want := []Window{{Sec: 1_000_000, Count: 15}, {Sec: 1_000_001, Count: 20}, {Sec: 1_000_005, Count: 1}}
	if len(ws) != len(want) {
		t.Fatalf("Windows = %+v, want %+v", ws, want)
	}
	for i := range want {
		if ws[i] != want[i] {
			t.Errorf("window %d = %+v, want %+v", i, ws[i], want[i])
		}
	}
	active, mean, peak := tp.Rates()
	if active != 3 || peak != 20 || mean != 12 {
		t.Errorf("Rates = %d/%v/%v, want 3/12/20", active, mean, peak)
	}
}

// TestThroughputRingEviction marks across more seconds than the ring
// holds; every count must survive into the overflow map.
func TestThroughputRingEviction(t *testing.T) {
	var tp Throughput
	base := time.Unix(2_000_000, 0)
	const seconds = throughputRing * 3
	for i := range seconds {
		tp.MarkAt(base.Add(time.Duration(i)*time.Second), 2)
	}
	if got := tp.Total(); got != seconds*2 {
		t.Fatalf("Total = %d, want %d", got, seconds*2)
	}
	ws := tp.Windows()
	if len(ws) != seconds {
		t.Fatalf("got %d windows, want %d", len(ws), seconds)
	}
	var sum int64
	for _, w := range ws {
		sum += w.Count
	}
	if sum != seconds*2 {
		t.Errorf("window sum = %d, want %d", sum, seconds*2)
	}
}

func TestThroughputConcurrent(t *testing.T) {
	var tp Throughput
	var wg sync.WaitGroup
	const workers, perWorker = 8, 10_000
	base := time.Now()
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range perWorker {
				tp.MarkAt(base.Add(time.Duration(i)*time.Millisecond), 1)
			}
		}(w)
	}
	wg.Wait()
	if got := tp.Total(); got != workers*perWorker {
		t.Errorf("Total = %d, want %d", got, workers*perWorker)
	}
	var sum int64
	for _, w := range tp.Windows() {
		sum += w.Count
	}
	if sum != workers*perWorker {
		t.Errorf("window sum = %d, want %d", sum, workers*perWorker)
	}
}

func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	c.ObserveLatencySeconds([]float64{1}) // must not panic
	c.Seal()
	s := c.Stage("x")
	if s != nil {
		t.Fatalf("nil collector returned non-nil stage")
	}
	s.Mark(5) // nil stage: no-op
	s.MarkAt(time.Now(), 5)
	if s.Records() != 0 {
		t.Error("nil stage recorded marks")
	}
	if got := c.LatencySummary(); got != (LatencySummary{}) {
		t.Errorf("nil collector LatencySummary = %+v", got)
	}
	if got := c.StageSummaries(); got != nil {
		t.Errorf("nil collector StageSummaries = %+v", got)
	}

	var r *Registry
	if r.Collector("cell") != nil {
		t.Error("nil registry returned a collector")
	}
	if cells := r.Cells(); cells != nil {
		t.Errorf("nil registry Cells = %v", cells)
	}
}

func TestCollectorStagesAndLatency(t *testing.T) {
	c := NewCollector()
	c.Stage("read").Mark(100)
	c.Stage("write").Mark(40)
	c.Stage("read").Mark(50)
	ms := func(i int) float64 { return float64(i) / 1000 }
	lats := make([]float64, 1000)
	for i := range lats {
		lats[i] = ms(1000 - i)
	}
	// Two batches, the second below the first: the summary merges them.
	c.ObserveLatencySeconds(lats[:600])
	c.ObserveLatencySeconds(lats[600:])

	sums := c.StageSummaries()
	if len(sums) != 2 || sums[0].Name != "read" || sums[1].Name != "write" {
		t.Fatalf("StageSummaries order = %+v", sums)
	}
	if sums[0].Records != 150 || sums[1].Records != 40 {
		t.Errorf("records = %d/%d, want 150/40", sums[0].Records, sums[1].Records)
	}

	// 1..1000ms: the nearest-rank quantiles are the observations
	// themselves.
	want := LatencySummary{Count: 1000, P50: ms(500), P90: ms(900), P99: ms(990), Max: ms(1000)}
	if got := c.LatencySummary(); got != want {
		t.Errorf("LatencySummary = %+v, want %+v", got, want)
	}
}

// lognormalSample returns n seeded heavy-tailed latencies in seconds,
// the shape event-time latency distributions have.
func lognormalSample(n int) []float64 {
	rng := rand.New(rand.NewPCG(uint64(n), 53))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 0.01 * math.Exp(rng.NormFloat64())
	}
	return xs
}

// TestLatencySummaryOrderIndependent feeds 20 seeded shuffles of one
// lognormal sample to fresh collectors, in three uneven batches as
// three runs of a cell would arrive. Every order must give the same
// summary, and that summary must be exact: the quantiles equal
// stats.Percentile of the sample, the maximum its largest element.
func TestLatencySummaryOrderIndependent(t *testing.T) {
	for _, n := range []int{3_000, 10_000, 100_000} {
		sample := lognormalSample(n)
		var want LatencySummary
		want.Count = int64(n)
		for q, dst := range map[float64]*float64{0.50: &want.P50, 0.90: &want.P90, 0.99: &want.P99} {
			v, err := stats.Percentile(sample, q)
			if err != nil {
				t.Fatal(err)
			}
			*dst = v
		}
		want.Max = slices.Max(sample)

		rng := rand.New(rand.NewPCG(uint64(n), 97))
		order := slices.Clone(sample)
		for shuffle := range 20 {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			c := NewCollector()
			c.ObserveLatencySeconds(order[:n/5])
			c.ObserveLatencySeconds(order[n/5 : n/2])
			c.ObserveLatencySeconds(order[n/2:])
			if got := c.LatencySummary(); got != want {
				t.Fatalf("n=%d shuffle %d: LatencySummary = %+v, want %+v", n, shuffle, got, want)
			}
		}
	}
}

// TestSealFixesSummary pins the end-of-cell contract: Seal keeps the
// summary, drops the observations, and an observation after it panics.
func TestSealFixesSummary(t *testing.T) {
	c := NewCollector()
	c.ObserveLatencySeconds(lognormalSample(1000))
	before := c.LatencySummary()
	c.Seal()
	c.Seal() // idempotent
	if c.latency != nil {
		t.Fatalf("sealed collector still holds %d observations", c.latency.Count())
	}
	if got := c.LatencySummary(); got != before {
		t.Fatalf("LatencySummary after Seal = %+v, before = %+v", got, before)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "after Seal") {
			t.Fatalf("observation after Seal: recovered %q, want a panic naming Seal", msg)
		}
	}()
	c.ObserveLatencySeconds([]float64{1})
}

func TestRegistryConcurrentGetOrCreate(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	collectors := make([]*Collector, 16)
	for i := range collectors {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			collectors[i] = r.Collector("same-cell")
			collectors[i].Stage("s").Mark(1)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(collectors); i++ {
		if collectors[i] != collectors[0] {
			t.Fatal("Registry returned distinct collectors for one cell")
		}
	}
	if got := collectors[0].Stage("s").Records(); got != 16 {
		t.Errorf("shared stage records = %d, want 16", got)
	}
	if cells := r.Cells(); len(cells) != 1 || cells[0] != "same-cell" {
		t.Errorf("Cells = %v", cells)
	}
	if _, ok := r.Get("same-cell"); !ok {
		t.Error("Get failed for existing cell")
	}
	if _, ok := r.Get("missing"); ok {
		t.Error("Get succeeded for missing cell")
	}
}
