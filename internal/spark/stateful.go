package spark

import (
	"fmt"
	"sync"
	"time"

	"beambench/internal/simcost"
	"beambench/internal/watermark"
)

// StatefulFactory builds the keyed operator of one stage partition; it
// runs once per partition on first use, not per batch. charge adds
// simulated cost to whichever task is running the partition at the
// time of the call: task meters are scoped to a batch, so the stage
// repoints charge at the running task's meter before every delivery.
type StatefulFactory func(partition int, charge func(time.Duration)) (watermark.Operator, error)

// Stateful deploys a keyed stateful operator on the engine's firing
// clock, the micro-batch: one operator instance per stage partition
// persists across batches — the engine's state path (the
// updateStateByKey/mapWithState family) — and each batch's task hands
// it the partition's records (Process) and then, once, the lineage
// watermark at the batch boundary (OnWatermark): the minimum over the
// upstream timestamp assigners (AssignTimestampsBounded), the zero time
// when none has claimed progress. Emission is thereby quantized to
// batch ends, as micro-batch semantics dictate. The stage is a barrier
// in the lineage (like a shuffle): upstream narrow stages compute per
// batch, the stateful stage consumes the batch, and its emissions feed
// the downstream stages of the same batch. When the bounded input
// drains, the scheduler runs one final pass that calls Flush instead,
// whose emissions flow through the downstream lineage.
//
// Records must reach the stage keyed (single input partition, or via
// RepartitionByKey); the state is partition-local. A stateful stage
// must be consumed by exactly one output operation: Spark recomputes
// lineage per output (no cache()), and replaying records into
// persistent state would double-count.
func (ds *DStream) Stateful(name string, factory StatefulFactory) *DStream {
	if factory == nil {
		ds.ssc.fail(fmt.Errorf("spark: stateful stage %q: nil factory", name))
		return ds
	}
	out := &DStream{
		ssc:    ds.ssc,
		parent: ds,
		kind:   stageStateful,
		name:   name,
		state:  &statefulNode{factory: factory},
	}
	return out
}

// statefulNode is the persistent run-time state of one Stateful stage.
type statefulNode struct {
	factory StatefulFactory

	mu        sync.Mutex
	instances []*statefulInstance
}

// statefulInstance is one partition's operator and the meter its charge
// func currently points at.
type statefulInstance struct {
	op    watermark.Operator
	meter *simcost.Meter
}

func (i *statefulInstance) charge(d time.Duration) { i.meter.Charge(d) }

// deliver is one batch's delivery into the instance: the partition's
// records, then the batch-boundary watermark.
func (i *statefulInstance) deliver(recs [][]byte, wm time.Time, emit func([]byte) error) error {
	for _, rec := range recs {
		if err := i.op.Process(rec, emit); err != nil {
			return err
		}
	}
	return i.op.OnWatermark(wm, emit)
}

// instancesFor returns the stage's instances, creating them on first
// use and pinning the partition count for the rest of the run.
func (n *statefulNode) instancesFor(parts int) ([]*statefulInstance, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.instances == nil {
		n.instances = make([]*statefulInstance, parts)
		for p := range n.instances {
			inst := &statefulInstance{}
			op, err := n.factory(p, inst.charge)
			if err != nil {
				n.instances = nil
				return nil, err
			}
			inst.op = op
			n.instances[p] = inst
		}
	}
	if len(n.instances) != parts {
		return nil, fmt.Errorf("spark: stateful stage saw %d partitions after %d; keyed state needs a stable layout",
			parts, len(n.instances))
	}
	return n.instances, nil
}

// current returns the already-created instances (possibly nil), for the
// end-of-input flush pass.
func (n *statefulNode) current() []*statefulInstance {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.instances
}

// RepartitionByKey redistributes records into n partitions by key hash,
// so all records with equal keys land in the same partition — the
// shuffle a keyed stateful stage needs when upstream partitioning is
// round-robin. It introduces a shuffle boundary like Repartition.
func (ds *DStream) RepartitionByKey(n int, key func(rec []byte) ([]byte, error)) *DStream {
	if n <= 0 {
		ds.ssc.fail(fmt.Errorf("spark: repartition by key to %d partitions", n))
		return ds
	}
	if key == nil {
		ds.ssc.fail(fmt.Errorf("spark: repartition by key: nil key selector"))
		return ds
	}
	return &DStream{ssc: ds.ssc, parent: ds, kind: stageShuffle, width: n, shuffleKey: key}
}
