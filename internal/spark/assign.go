package spark

import (
	"fmt"
	"sync"
	"time"

	"beambench/internal/watermark"
)

// AssignTimestampsBounded adds the timestamp/watermark assigner stage:
// each partition's records feed a persistent watermark.Generator with
// the given out-of-orderness bound, so the stage's watermark — the
// minimum over its partitions — tracks the event-time progress of
// everything admitted so far. Records pass through unchanged; the
// watermark travels out of band, delivered to downstream stateful
// stages (Stateful) at each batch boundary — the micro-batch engine's
// control-event channel. Place it where event time enters the lineage,
// right after the input.
func (ds *DStream) AssignTimestampsBounded(eventTime func(rec []byte) (time.Time, error), bound time.Duration) *DStream {
	if eventTime == nil {
		ds.ssc.fail(fmt.Errorf("spark: assign timestamps: nil event-time fn"))
		return ds
	}
	return &DStream{
		ssc:    ds.ssc,
		parent: ds,
		kind:   stageAssign,
		name:   "AssignTimestamps",
		assign: &assignNode{eventTime: eventTime, bound: bound},
	}
}

// assignNode is the persistent run-time state of one assign stage: one
// watermark generator per partition, surviving across micro-batches
// like a statefulNode's instances.
type assignNode struct {
	eventTime func(rec []byte) (time.Time, error)
	bound     time.Duration

	mu   sync.Mutex
	gens map[int]*watermark.Generator
}

// generator returns the partition's generator, creating it on first
// use. The generator itself is then owned by the partition's task.
func (n *assignNode) generator(p int) *watermark.Generator {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.gens == nil {
		n.gens = make(map[int]*watermark.Generator)
	}
	g := n.gens[p]
	if g == nil {
		g = watermark.NewGenerator(n.bound)
		n.gens[p] = g
	}
	return g
}

// watermark returns the stage's output watermark: the minimum over the
// partitions seen so far, or the zero time before any partition
// observed a record (no progress claimed yet).
func (n *assignNode) watermark() time.Time {
	n.mu.Lock()
	defer n.mu.Unlock()
	var min time.Time
	first := true
	for _, g := range n.gens {
		w := g.Current()
		if first || w.Before(min) {
			min = w
			first = false
		}
	}
	return min
}
