// Package broker implements the message broker of the benchmark
// architecture (Figure 5 in Hesse et al., ICDCS 2019): an Apache-Kafka-
// style partitioned, append-only log with LogAppendTime timestamps.
//
// The paper's methodology depends on exactly three broker properties,
// all reproduced here:
//
//  1. records within one partition keep their append order (the input
//     and output topics use a single partition for this reason),
//  2. the broker can stamp every record with the time it was appended
//     to the log (log.message.timestamp.type=LogAppendTime), and
//  3. execution time can be computed from those timestamps alone,
//     independent of any engine-reported metrics.
//
// Producers batch by size with configurable acknowledgment levels;
// consumers poll by explicit partition assignment. Per-call charges
// follow the simcost model.
//
// Each partition's log is a sequence of fixed-size chunks (log.go), so
// an append never moves or clears what is already stored. A record's
// bytes are copied once, when Producer.Send takes them into a batch;
// every read — Poll, Records, VisitRecords, SaveSnapshot — hands out
// views of the stored bytes (see Record).
package broker

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"beambench/internal/simcost"
)

// Errors reported by the broker. They support errors.Is matching.
var (
	ErrTopicExists      = errors.New("broker: topic already exists")
	ErrUnknownTopic     = errors.New("broker: unknown topic")
	ErrUnknownPartition = errors.New("broker: unknown partition")
	ErrPartitionOffline = errors.New("broker: partition offline")
	ErrClosed           = errors.New("broker: closed")
)

// TimestampType selects which timestamp is stored with each record.
type TimestampType int

const (
	// CreateTime stores the producer-supplied timestamp.
	CreateTime TimestampType = iota + 1
	// LogAppendTime stores the broker's clock at append time — the mode
	// the paper's measurement methodology requires (Section III-A3).
	LogAppendTime
)

// String returns the Kafka-style name of the timestamp type.
func (t TimestampType) String() string {
	switch t {
	case CreateTime:
		return "CreateTime"
	case LogAppendTime:
		return "LogAppendTime"
	default:
		return fmt.Sprintf("TimestampType(%d)", int(t))
	}
}

// TopicConfig describes a topic at creation time.
type TopicConfig struct {
	// Partitions is the number of partitions; at least 1.
	Partitions int
	// ReplicationFactor is recorded for fidelity with the paper's setup
	// (both benchmark topics use replication factor 1). The in-process
	// broker has a single node, so the factor is bounded by 1 node but
	// validated like Kafka validates it.
	ReplicationFactor int
	// Timestamps selects CreateTime or LogAppendTime; defaults to
	// LogAppendTime, the paper's configuration.
	Timestamps TimestampType
}

func (c *TopicConfig) validate() error {
	if c.Partitions <= 0 {
		return fmt.Errorf("broker: partitions must be positive, got %d", c.Partitions)
	}
	if c.ReplicationFactor < 0 {
		return fmt.Errorf("broker: negative replication factor %d", c.ReplicationFactor)
	}
	if c.ReplicationFactor == 0 {
		c.ReplicationFactor = 1
	}
	if c.Timestamps == 0 {
		c.Timestamps = LogAppendTime
	}
	if c.Timestamps != CreateTime && c.Timestamps != LogAppendTime {
		return fmt.Errorf("broker: invalid timestamp type %d", c.Timestamps)
	}
	return nil
}

// Record is a consumed record together with its log coordinates.
//
// Record ownership, the one rule for the whole record path: a record's
// bytes are copied exactly once, when Producer.Send takes them into a
// log; from then on they are immutable. Key and Value are read-only
// views of the log — whoever is handed a record may keep it for as long
// as it likes and alias into it, and nobody writes into it. The engines'
// emit contracts and the beam coders pass records on under the same
// rule, so no boundary between source and sink copies one again; what
// a hop, shuffle or buffer-server publish costs is its simcost charge.
type Record struct {
	Topic     string
	Partition int
	Offset    int64
	Key       []byte
	Value     []byte
	// Timestamp is the record's stored timestamp; for LogAppendTime
	// topics this is the broker append time.
	Timestamp time.Time
}

// Broker is an in-process single-node message broker.
type Broker struct {
	costs simcost.Costs
	sim   *simcost.Simulator

	mu     sync.RWMutex
	topics map[string]*topic
	closed bool
	now    func() time.Time
}

// Option configures a Broker.
type Option interface {
	apply(*Broker)
}

type costsOption struct {
	costs simcost.Costs
	sim   *simcost.Simulator
}

func (o costsOption) apply(b *Broker) {
	b.costs = o.costs
	b.sim = o.sim
}

// WithCosts installs a cost model; by default the broker charges nothing.
func WithCosts(costs simcost.Costs, sim *simcost.Simulator) Option {
	return costsOption{costs: costs, sim: sim}
}

type clockOption struct{ now func() time.Time }

func (o clockOption) apply(b *Broker) { b.now = o.now }

// WithClock overrides the broker clock, for deterministic tests.
func WithClock(now func() time.Time) Option {
	return clockOption{now: now}
}

// New returns an empty broker.
func New(opts ...Option) *Broker {
	b := &Broker{
		topics: make(map[string]*topic),
		now:    time.Now,
	}
	for _, o := range opts {
		o.apply(b)
	}
	return b
}

// Close marks the broker closed; subsequent operations fail with ErrClosed
// and blocked PollWait callers return with an error.
func (b *Broker) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	for _, t := range b.topics {
		for _, p := range t.parts {
			p.markGone()
		}
	}
}

// CreateTopic creates a topic with the given configuration.
func (b *Broker) CreateTopic(name string, cfg TopicConfig) error {
	if name == "" {
		return errors.New("broker: empty topic name")
	}
	if err := cfg.validate(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	if _, ok := b.topics[name]; ok {
		return fmt.Errorf("%w: %q", ErrTopicExists, name)
	}
	t := &topic{name: name, cfg: cfg, parts: make([]*partition, cfg.Partitions)}
	for i := range t.parts {
		t.parts[i] = newPartition()
	}
	b.topics[name] = t
	return nil
}

// DeleteTopic removes a topic and its data. Blocked PollWait callers
// assigned to the topic return with an error.
func (b *Broker) DeleteTopic(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	t, ok := b.topics[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTopic, name)
	}
	for _, p := range t.parts {
		p.markGone()
	}
	delete(b.topics, name)
	return nil
}

// Topics lists topic names in lexicographic order.
func (b *Broker) Topics() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	names := make([]string, 0, len(b.topics))
	for n := range b.topics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TopicConfig returns the configuration of a topic.
func (b *Broker) TopicConfig(name string) (TopicConfig, error) {
	t, err := b.topic(name)
	if err != nil {
		return TopicConfig{}, err
	}
	return t.cfg, nil
}

// Partitions reports the partition count of a topic.
func (b *Broker) Partitions(name string) (int, error) {
	t, err := b.topic(name)
	if err != nil {
		return 0, err
	}
	return len(t.parts), nil
}

// EndOffsets returns, per partition, the offset one past the last record.
func (b *Broker) EndOffsets(name string) ([]int64, error) {
	t, err := b.topic(name)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(t.parts))
	for i, p := range t.parts {
		out[i] = p.endOffset()
	}
	return out, nil
}

// ConsumedOffsets returns, per partition, the highest offset any
// consumer has fetched through (one past the last fetched record).
// Together with EndOffsets this yields per-partition consumer lag
// without touching the consumers themselves — a Consumer is not safe
// for concurrent use, so a lag monitor must read broker-side state.
func (b *Broker) ConsumedOffsets(name string) ([]int64, error) {
	t, err := b.topic(name)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(t.parts))
	for i, p := range t.parts {
		out[i] = p.consumedOffset()
	}
	return out, nil
}

// RecordCount returns the total number of records stored across the
// partitions of a topic.
func (b *Broker) RecordCount(name string) (int64, error) {
	ends, err := b.EndOffsets(name)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ends {
		total += e
	}
	return total, nil
}

// TimeSpan returns the earliest and latest stored record timestamps of a
// topic and the number of records. This is the result calculator's input:
// the paper computes execution time as last minus first LogAppendTime in
// the output topic.
func (b *Broker) TimeSpan(name string) (first, last time.Time, n int64, err error) {
	t, err := b.topic(name)
	if err != nil {
		return time.Time{}, time.Time{}, 0, err
	}
	for _, p := range t.parts {
		pf, pl, pn := p.timeSpan()
		if pn == 0 {
			continue
		}
		if n == 0 || pf.Before(first) {
			first = pf
		}
		if n == 0 || pl.After(last) {
			last = pl
		}
		n += pn
	}
	return first, last, n, nil
}

// Timestamps returns the stored timestamps of one partition in offset
// order, without copying record payloads. This is the result
// calculator's per-record input: for single-partition LogAppendTime
// topics (the benchmark configuration), the k-th element is the append
// time of the k-th record, so event-time latency can be computed from
// broker state alone — input append time to output append time —
// independent of any engine-reported metrics.
func (b *Broker) Timestamps(name string, part int) ([]time.Time, error) {
	p, err := b.partition(name, part)
	if err != nil {
		return nil, err
	}
	return p.timestamps()
}

// Records returns one partition's records in offset order — the bulk
// read the result calculator uses to pair output payloads with their
// source inputs without driving a consumer. The slice is the caller's;
// the Key and Value in it are views of the log (see Record).
func (b *Broker) Records(name string, part int) ([]Record, error) {
	p, err := b.partition(name, part)
	if err != nil {
		return nil, err
	}
	return p.fetch(name, part, 0, int(p.endOffset()))
}

// VisitRecords calls fn for every record of one partition in offset
// order, allocating nothing. The partition is locked for the duration,
// so fn must not call back into the broker. This is the bulk read the
// harness's per-run latency pairing runs on its hot path; Records
// returns the same views in a slice.
func (b *Broker) VisitRecords(name string, part int, fn func(Record) error) error {
	p, err := b.partition(name, part)
	if err != nil {
		return err
	}
	return p.visit(name, part, fn)
}

// SetPartitionOffline injects or clears a partition failure. While a
// partition is offline, produces and fetches to it fail with
// ErrPartitionOffline. Blocked PollWait callers are woken.
func (b *Broker) SetPartitionOffline(name string, part int, offline bool) error {
	p, err := b.partition(name, part)
	if err != nil {
		return err
	}
	p.setOffline(offline)
	return nil
}

func (b *Broker) topic(name string) (*topic, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return nil, ErrClosed
	}
	t, ok := b.topics[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTopic, name)
	}
	return t, nil
}

func (b *Broker) partition(name string, part int) (*partition, error) {
	t, err := b.topic(name)
	if err != nil {
		return nil, err
	}
	if part < 0 || part >= len(t.parts) {
		return nil, fmt.Errorf("%w: %s/%d", ErrUnknownPartition, name, part)
	}
	return t.parts[part], nil
}

// topic groups the partitions of one topic.
type topic struct {
	name  string
	cfg   TopicConfig
	parts []*partition
}

// partition is one append-only log with its own lock and waiters.
// Waiters block on waitCh, which is closed and replaced on every state
// change (append, offline toggle, close/delete), so a waiter that
// snapshots state and channel under one lock acquisition can never miss
// a wake-up.
type partition struct {
	mu  sync.Mutex
	log recordLog
	// consumed is the highest offset any consumer has fetched through,
	// the broker-side signal the lag monitor reads.
	consumed int64
	offline  bool
	// gone marks the partition permanently unreachable: its broker was
	// closed or its topic deleted. Waiters must stop waiting and report
	// an error instead of re-blocking.
	gone   bool
	waitCh chan struct{}
}

func newPartition() *partition {
	return &partition{waitCh: make(chan struct{})}
}

// partitionState is the snapshot a waiter decides on.
type partitionState struct {
	end     int64
	offline bool
	gone    bool
}

// watch returns the current state together with the channel that will be
// closed on the next state change.
func (p *partition) watch() (partitionState, <-chan struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return partitionState{end: int64(p.log.len()), offline: p.offline, gone: p.gone}, p.waitCh
}

// notifyLocked wakes all current waiters. Caller must hold p.mu.
func (p *partition) notifyLocked() {
	close(p.waitCh)
	p.waitCh = make(chan struct{})
}

// append stores records and returns the base offset assigned. The log
// takes the entries (it copies them into its chunks) and their key and
// value bytes as they are; recs itself stays the caller's to reuse.
// Timestamps are forced to be non-decreasing within the partition — in
// recs, before they are stored — so the result calculator's first/last
// arithmetic is well defined even when the OS clock has coarse
// granularity.
func (p *partition) append(recs []storedRecord) (int64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.offline {
		return 0, ErrPartitionOffline
	}
	base := int64(p.log.len())
	var lastTS time.Time
	if base > 0 {
		lastTS = p.log.last().ts
	}
	for i := range recs {
		if recs[i].ts.Before(lastTS) {
			recs[i].ts = lastTS
		}
		lastTS = recs[i].ts
	}
	p.log.append(recs)
	p.notifyLocked()
	return base, nil
}

// fetch returns up to max records starting at offset. Key and Value
// alias the log (see Record); the one allocation is the result slice.
func (p *partition) fetch(topicName string, part int, offset int64, max int) ([]Record, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.offline {
		return nil, ErrPartitionOffline
	}
	if offset < 0 {
		offset = 0
	}
	end := int64(p.log.len())
	if offset >= end || max <= 0 {
		return nil, nil
	}
	if end-offset > int64(max) {
		end = offset + int64(max)
	}
	out := make([]Record, end-offset)
	for i := range out {
		out[i] = p.recordAtLocked(topicName, part, int(offset)+i)
	}
	return out, nil
}

// recordAtLocked is the consumer's view of log entry i. Caller must hold p.mu.
func (p *partition) recordAtLocked(topicName string, part, i int) Record {
	sr := p.log.at(i)
	return Record{
		Topic:     topicName,
		Partition: part,
		Offset:    int64(i),
		Key:       sr.key,
		Value:     sr.value,
		Timestamp: sr.ts,
	}
}

func (p *partition) endOffset() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int64(p.log.len())
}

func (p *partition) consumedOffset() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.consumed
}

// noteConsumed advances the consumed high-watermark; consumers report
// their position after each successful fetch.
func (p *partition) noteConsumed(through int64) {
	p.mu.Lock()
	if through > p.consumed {
		p.consumed = through
	}
	p.mu.Unlock()
}

func (p *partition) visit(topicName string, part int, fn func(Record) error) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.offline {
		return ErrPartitionOffline
	}
	for i := range p.log.len() {
		if err := fn(p.recordAtLocked(topicName, part, i)); err != nil {
			return err
		}
	}
	return nil
}

func (p *partition) timestamps() ([]time.Time, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.offline {
		return nil, ErrPartitionOffline
	}
	out := make([]time.Time, p.log.len())
	for i := range out {
		out[i] = p.log.at(i).ts
	}
	return out, nil
}

func (p *partition) timeSpan() (first, last time.Time, n int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.log.len() == 0 {
		return time.Time{}, time.Time{}, 0
	}
	return p.log.at(0).ts, p.log.last().ts, int64(p.log.len())
}

func (p *partition) setOffline(offline bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.offline = offline
	p.notifyLocked()
}

// markGone flags the partition as permanently unreachable (broker closed
// or topic deleted) and wakes all waiters.
func (p *partition) markGone() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gone = true
	p.notifyLocked()
}
