package harness

import (
	"fmt"

	"beambench/internal/broker"
	"beambench/internal/metrics"
	"beambench/internal/queries"
)

// cellKey names a setup's collector in the telemetry registry.
func cellKey(setup Setup) string {
	return setup.Label() + " " + setup.Query.String()
}

// survivorIndex returns the cached payload-to-input pairing index for
// q, built once from the immutable dataset and shared (read-only) by
// all concurrently running cells of the query. Every query is
// deterministic (Sample hashes with the configured seed), so the
// surviving set — and its size — is known from the dataset alone.
func (r *Runner) survivorIndex(q queries.Query) (*queries.SurvivorIndex, error) {
	r.survivorsMu.Lock()
	defer r.survivorsMu.Unlock()
	if ix, ok := r.survivorIndexByQ[q]; ok {
		return ix, nil
	}
	ix, err := queries.NewSurvivorIndex(q, r.cfg.SampleSeed)
	if err != nil {
		return nil, err
	}
	for _, rec := range r.dataset {
		ix.AddInput(rec)
	}
	// Seal before sharing: the first Expected() call freezes a keyed
	// (WindowedCount) index's aggregates into payload entries; doing it
	// here, still under survivorsMu, keeps the cached index immutable
	// for the concurrent cells that read it.
	ix.Expected()
	r.survivorIndexByQ[q] = ix
	return ix, nil
}

// observeLatencies is the telemetry half of result calculation: it
// pairs every output record with the input record that produced it
// (queries.SurvivorIndex: FIFO by payload, robust to parallel
// partitions interleaving the output topic) and feeds the append-time
// differences — per-record event-time latency in the sense of Karimov
// et al. (ICDE 2018), including broker queueing time — into the cell's
// collector. Both timestamps come from the broker alone, so native and
// Beam cells are measured identically.
func (r *Runner) observeLatencies(b *broker.Broker, setup Setup, col *metrics.Collector) error {
	ix, err := r.survivorIndex(setup.Query)
	if err != nil {
		return err
	}
	// The pairing walks one partition; the benchmark topics are created
	// single-partition (the paper's configuration), and a loud error
	// here beats silently summarizing a subset if that ever changes.
	if parts, err := b.Partitions(outputTopic); err != nil {
		return err
	} else if parts != 1 {
		return fmt.Errorf("harness: latency pairing needs a single-partition output topic, got %d partitions", parts)
	}
	inTS, err := b.Timestamps(inputTopic, 0)
	if err != nil {
		return fmt.Errorf("harness: input timestamps: %w", err)
	}
	if len(inTS) != len(r.dataset) {
		return fmt.Errorf("harness: input topic holds %d records, dataset has %d", len(inTS), len(r.dataset))
	}
	outCount, err := b.RecordCount(outputTopic)
	if err != nil {
		return fmt.Errorf("harness: output records: %w", err)
	}
	if outCount != int64(ix.Expected()) {
		return fmt.Errorf("harness: %s %s: %d output records but %d expected survivors; cannot pair latencies",
			setup.Label(), setup.Query, outCount, ix.Expected())
	}
	pairing := ix.NewPairing()
	latencies := make([]float64, 0, outCount)
	err = b.VisitRecords(outputTopic, 0, func(rec broker.Record) error {
		in, err := pairing.Pair(rec.Value)
		if err != nil {
			return err
		}
		latencies = append(latencies, rec.Timestamp.Sub(inTS[in]).Seconds())
		return nil
	})
	if err != nil {
		return fmt.Errorf("harness: %s %s: %w", setup.Label(), setup.Query, err)
	}
	col.ObserveLatencySeconds(latencies)
	return nil
}
