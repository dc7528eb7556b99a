package simcost

import "time"

// Costs holds the calibrated per-path charges. Every constant models a
// cost the corresponding physical system pays; the doc comment on each
// field names the paper observation it supports. Durations are per call
// unless the name says PerRecord/PerByte.
type Costs struct {
	// BrokerProduceBatch is the broker-side cost of one produce request
	// (network round trip + log append), independent of batch size.
	BrokerProduceBatch time.Duration
	// BrokerProducePerRecord is the marginal cost per record in a
	// produce request.
	BrokerProducePerRecord time.Duration
	// BrokerFetchBatch is the cost of one fetch request.
	BrokerFetchBatch time.Duration
	// BrokerFetchPerRecord is the marginal per-record fetch cost.
	BrokerFetchPerRecord time.Duration

	// NetworkHopPerRecord is the per-record cost of crossing a task
	// boundary (serialize + frame + hand over), and the whole modelled
	// cost of the hop: the Go hand-off underneath is buffer-granular on
	// purpose (internal/flink/exchange.go), so that what a boundary costs
	// per record is this charge and not a channel operation. Chained
	// Flink operators avoid it entirely — the optimization Section II-B
	// describes.
	NetworkHopPerRecord time.Duration

	// CoderPerRecord is the per-record cost of a Beam coder encode or
	// decode at an operator boundary. The charge is the serialization:
	// records are immutable and no coder copies their bytes.
	// Beam-on-Flink pays this at every one of the ~6 boundaries in
	// Figure 13.
	CoderPerRecord time.Duration

	// BeamDoFnPerRecord is the per-element overhead of dispatching
	// through the Beam DoFn machinery (WindowedValue wrapping, interface
	// dispatch, emitter indirection) compared to a native lambda.
	BeamDoFnPerRecord time.Duration

	// SparkBatch is the fixed cost of scheduling one micro-batch
	// (job/stage bookkeeping in the driver).
	SparkBatch time.Duration
	// SparkTaskLaunch is the cost of launching one task on an executor
	// for one partition of one batch.
	SparkTaskLaunch time.Duration
	// SparkShufflePerRecord is the per-record cost of a shuffle
	// (serialize, spill to shuffle files, fetch, deserialize). The Beam
	// runner's redistribution at parallelism 2 pays it, which is why
	// the paper measures Beam-on-Spark running markedly slower at P2
	// for cheap queries (Figures 6 and 9).
	SparkShufflePerRecord time.Duration

	// BufferServerPublish is the cost of one publish call to the Apex
	// buffer server. The native engine publishes once per streaming
	// window batch; the Beam runner publishes per tuple — the asymmetry
	// behind the paper's 30–58x Apex slowdowns (Figure 11).
	BufferServerPublish time.Duration
	// BufferServerPerRecord is the marginal per-record cost inside a
	// publish call.
	BufferServerPerRecord time.Duration

	// ProducerSyncSend is the cost of a synchronous, unbatched send to
	// the broker (acks=all, no linger) as performed by the Beam-on-Apex
	// sink for every output record.
	ProducerSyncSend time.Duration

	// YarnContainerStart is the one-off cost of allocating and starting
	// a YARN container.
	YarnContainerStart time.Duration
	// EngineJobStart is the one-off job submission/deployment cost for
	// a streaming job on any engine.
	EngineJobStart time.Duration
	// Checkpoint is the cost of persisting one operator checkpoint at a
	// streaming-window boundary (Apex checkpoints into HDFS).
	Checkpoint time.Duration
}

// DefaultCosts returns the calibration used for all reported experiments.
//
// The absolute values are chosen so that a 50k-record run finishes in
// tens of milliseconds to a few seconds on commodity hardware while the
// *ratios* between the twelve setups match the paper's Figures 6–9 and 11.
func DefaultCosts() Costs {
	return Costs{
		BrokerProduceBatch:     60 * time.Microsecond,
		BrokerProducePerRecord: 60 * time.Nanosecond,
		BrokerFetchBatch:       40 * time.Microsecond,
		BrokerFetchPerRecord:   400 * time.Nanosecond,

		NetworkHopPerRecord: 4 * time.Microsecond,
		CoderPerRecord:      200 * time.Nanosecond,
		BeamDoFnPerRecord:   250 * time.Nanosecond,

		SparkBatch:            1500 * time.Microsecond,
		SparkTaskLaunch:       350 * time.Microsecond,
		SparkShufflePerRecord: 2500 * time.Nanosecond,

		BufferServerPublish:   18 * time.Microsecond,
		BufferServerPerRecord: 80 * time.Nanosecond,

		ProducerSyncSend: 9 * time.Microsecond,

		YarnContainerStart: 3 * time.Millisecond,
		EngineJobStart:     5 * time.Millisecond,
		Checkpoint:         300 * time.Microsecond,
	}
}

// ZeroCosts returns a Costs with every charge set to zero, for functional
// tests that only care about data correctness.
func ZeroCosts() Costs {
	return Costs{}
}
