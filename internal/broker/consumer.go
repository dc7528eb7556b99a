package broker

import (
	"fmt"
	"reflect"
	"sort"
	"time"

	"beambench/internal/simcost"
)

// ConsumerConfig controls fetch behaviour.
type ConsumerConfig struct {
	// MaxPollRecords bounds the records returned by one Poll; defaults
	// to 500.
	MaxPollRecords int
}

func (c *ConsumerConfig) validate() error {
	if c.MaxPollRecords == 0 {
		c.MaxPollRecords = 500
	}
	if c.MaxPollRecords < 0 {
		return fmt.Errorf("broker: negative max poll records %d", c.MaxPollRecords)
	}
	return nil
}

// Consumer reads records from explicitly assigned topic partitions.
// A Consumer is not safe for concurrent use; every consuming goroutine
// owns its own.
type Consumer struct {
	b         *Broker
	cfg       ConsumerConfig
	meter     *simcost.Meter
	positions map[topicPartition]int64
	rr        []topicPartition // round-robin order over assignments
	next      int
}

// NewConsumer returns a consumer with no assignments.
func (b *Broker) NewConsumer(cfg ConsumerConfig) (*Consumer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Consumer{
		b:         b,
		cfg:       cfg,
		meter:     b.sim.NewMeter(),
		positions: make(map[topicPartition]int64),
	}, nil
}

// Assign adds a topic partition at the given starting offset. Assigning
// an already-assigned partition repositions it.
func (c *Consumer) Assign(topicName string, part int, offset int64) error {
	if _, err := c.b.partition(topicName, part); err != nil {
		return err
	}
	if offset < 0 {
		return fmt.Errorf("broker: negative offset %d", offset)
	}
	tp := topicPartition{topic: topicName, part: part}
	if _, ok := c.positions[tp]; !ok {
		c.rr = append(c.rr, tp)
	}
	c.positions[tp] = offset
	return nil
}

// AssignAll assigns every partition of a topic from offset 0.
func (c *Consumer) AssignAll(topicName string) error {
	n, err := c.b.Partitions(topicName)
	if err != nil {
		return err
	}
	for p := range n {
		if err := c.Assign(topicName, p, 0); err != nil {
			return err
		}
	}
	return nil
}

// Position reports the next offset the consumer will fetch for tp.
func (c *Consumer) Position(topicName string, part int) (int64, bool) {
	off, ok := c.positions[topicPartition{topic: topicName, part: part}]
	return off, ok
}

// Poll fetches up to MaxPollRecords records across assignments, rotating
// through partitions round-robin. It never blocks: an empty result means
// no data is currently available.
func (c *Consumer) Poll() ([]Record, error) {
	if len(c.rr) == 0 {
		return nil, nil
	}
	budget := c.cfg.MaxPollRecords
	var out []Record
	for range c.rr {
		tp := c.rr[c.next%len(c.rr)]
		c.next++
		recs, err := c.fetchFrom(tp, budget)
		if err != nil {
			// The records fetched before the failing partition are still
			// returned, so the fetch request they rode on must still be
			// paid for — otherwise the simulated clock under-charges
			// exactly when partitions fail.
			c.chargeFetch(len(out))
			return out, err
		}
		if out == nil {
			out = recs // the common single-partition poll: no second slice
		} else {
			out = append(out, recs...)
		}
		budget -= len(recs)
		if budget <= 0 {
			break
		}
	}
	c.chargeFetch(len(out))
	return out, nil
}

// PollWait polls, blocking until at least one record is available on any
// assignment, the timeout elapses, or an assigned partition goes
// offline. A timeout of 0 means wait forever; a negative timeout
// degrades to a single non-blocking Poll. It returns an error when the
// broker is closed or an assigned topic is deleted, including while
// blocked.
func (c *Consumer) PollWait(timeout time.Duration) ([]Record, error) {
	recs, err := c.Poll()
	if err != nil || len(recs) > 0 || timeout < 0 {
		return recs, err
	}
	if len(c.rr) == 0 {
		return nil, nil
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		// Snapshot every assignment's state together with its wake
		// channel. Any append, offline toggle, or close/delete after the
		// snapshot closes the corresponding channel, so no wake-up
		// between the check and the wait can be lost.
		chans := make([]<-chan struct{}, 0, len(c.rr))
		ready := false
		for _, tp := range c.rr {
			p, err := c.b.partition(tp.topic, tp.part)
			if err != nil {
				return nil, err // broker closed or topic deleted
			}
			st, ch := p.watch()
			if st.gone {
				// Closed or deleted between the lookup and the snapshot;
				// re-resolving yields the precise error once the
				// concurrent Close/DeleteTopic releases the broker lock.
				if _, err := c.b.partition(tp.topic, tp.part); err != nil {
					return nil, err
				}
				return nil, ErrClosed
			}
			if st.offline || st.end > c.positions[tp] {
				ready = true
				break
			}
			chans = append(chans, ch)
		}
		if !ready && !waitAny(chans, deadline) {
			return c.Poll() // deadline elapsed: one final non-blocking poll
		}
		recs, err := c.Poll()
		if err != nil || len(recs) > 0 {
			return recs, err
		}
	}
}

// waitAny blocks until any of the channels is closed or the deadline
// passes (a zero deadline means no timeout). It reports false exactly on
// deadline expiry.
//
// This sits on the blocking-poll hot path: with streaming ingestion a
// source iterates PollWait for the lifetime of the run, so the wait must
// not spawn (and tear down) a goroutine per assigned partition per
// iteration. One and two channels — the common assignment shapes — use
// plain selects; larger fan-ins use a single reflect.Select, which waits
// on every channel from the calling goroutine.
func waitAny(chans []<-chan struct{}, deadline time.Time) bool {
	var timeout <-chan time.Time
	if !deadline.IsZero() {
		d := time.Until(deadline)
		if d <= 0 {
			return false
		}
		timer := time.NewTimer(d)
		defer timer.Stop()
		timeout = timer.C
	}
	switch len(chans) {
	case 1:
		select {
		case <-chans[0]:
			return true
		case <-timeout:
			return false
		}
	case 2:
		select {
		case <-chans[0]:
			return true
		case <-chans[1]:
			return true
		case <-timeout:
			return false
		}
	}
	// A nil timeout channel blocks its case forever, matching the
	// no-deadline contract.
	cases := make([]reflect.SelectCase, len(chans)+1)
	for i, ch := range chans {
		cases[i] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(ch)}
	}
	cases[len(chans)] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(timeout)}
	chosen, _, _ := reflect.Select(cases)
	return chosen < len(chans)
}

func (c *Consumer) fetchFrom(tp topicPartition, max int) ([]Record, error) {
	p, err := c.b.partition(tp.topic, tp.part)
	if err != nil {
		return nil, err
	}
	recs, err := p.fetch(tp.topic, tp.part, c.positions[tp], max)
	if err != nil {
		return nil, fmt.Errorf("broker: fetch %s/%d: %w", tp.topic, tp.part, err)
	}
	if len(recs) > 0 {
		c.positions[tp] = recs[len(recs)-1].Offset + 1
		p.noteConsumed(c.positions[tp])
	}
	return recs, nil
}

// chargeFetch applies the cost model for one fetch request.
func (c *Consumer) chargeFetch(n int) {
	costs := c.b.costs
	c.meter.Charge(costs.BrokerFetchBatch)
	c.meter.Charge(time.Duration(n) * costs.BrokerFetchPerRecord)
	c.meter.Flush()
}

// Charged reports the total simulated time this consumer's meter has
// realized, for cost-accounting tests.
func (c *Consumer) Charged() time.Duration {
	return c.meter.Charged()
}

// Assignments lists the consumer's assigned partitions sorted by topic
// then partition.
func (c *Consumer) Assignments() []string {
	out := make([]string, 0, len(c.rr))
	for _, tp := range c.rr {
		out = append(out, fmt.Sprintf("%s/%d", tp.topic, tp.part))
	}
	sort.Strings(out)
	return out
}
