package broker

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func mustCreate(t *testing.T, b *Broker, name string, cfg TopicConfig) {
	t.Helper()
	if err := b.CreateTopic(name, cfg); err != nil {
		t.Fatalf("CreateTopic(%q): %v", name, err)
	}
}

func newProducer(t *testing.T, b *Broker, cfg ProducerConfig) *Producer {
	t.Helper()
	p, err := b.NewProducer(cfg)
	if err != nil {
		t.Fatalf("NewProducer: %v", err)
	}
	return p
}

func newConsumer(t *testing.T, b *Broker, cfg ConsumerConfig) *Consumer {
	t.Helper()
	c, err := b.NewConsumer(cfg)
	if err != nil {
		t.Fatalf("NewConsumer: %v", err)
	}
	return c
}

func TestCreateTopicValidation(t *testing.T) {
	b := New()
	tests := []struct {
		name    string
		topic   string
		cfg     TopicConfig
		wantErr bool
	}{
		{name: "valid", topic: "a", cfg: TopicConfig{Partitions: 1}},
		{name: "multi partition", topic: "b", cfg: TopicConfig{Partitions: 8}},
		{name: "empty name", topic: "", cfg: TopicConfig{Partitions: 1}, wantErr: true},
		{name: "zero partitions", topic: "c", cfg: TopicConfig{}, wantErr: true},
		{name: "negative partitions", topic: "d", cfg: TopicConfig{Partitions: -1}, wantErr: true},
		{name: "negative rf", topic: "e", cfg: TopicConfig{Partitions: 1, ReplicationFactor: -1}, wantErr: true},
		{name: "bad timestamp type", topic: "f", cfg: TopicConfig{Partitions: 1, Timestamps: 99}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := b.CreateTopic(tt.topic, tt.cfg)
			if (err != nil) != tt.wantErr {
				t.Errorf("CreateTopic error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestCreateTopicDuplicate(t *testing.T) {
	b := New()
	mustCreate(t, b, "dup", TopicConfig{Partitions: 1})
	err := b.CreateTopic("dup", TopicConfig{Partitions: 1})
	if !errors.Is(err, ErrTopicExists) {
		t.Errorf("duplicate create error = %v, want ErrTopicExists", err)
	}
}

func TestTopicDefaults(t *testing.T) {
	b := New()
	mustCreate(t, b, "t", TopicConfig{Partitions: 2})
	cfg, err := b.TopicConfig("t")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Timestamps != LogAppendTime {
		t.Errorf("default timestamp type = %v, want LogAppendTime", cfg.Timestamps)
	}
	if cfg.ReplicationFactor != 1 {
		t.Errorf("default replication factor = %d, want 1", cfg.ReplicationFactor)
	}
}

func TestDeleteTopic(t *testing.T) {
	b := New()
	mustCreate(t, b, "gone", TopicConfig{Partitions: 1})
	if err := b.DeleteTopic("gone"); err != nil {
		t.Fatal(err)
	}
	if err := b.DeleteTopic("gone"); !errors.Is(err, ErrUnknownTopic) {
		t.Errorf("second delete error = %v, want ErrUnknownTopic", err)
	}
	if _, err := b.Partitions("gone"); !errors.Is(err, ErrUnknownTopic) {
		t.Errorf("Partitions after delete = %v, want ErrUnknownTopic", err)
	}
}

func TestTopicsSorted(t *testing.T) {
	b := New()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		mustCreate(t, b, name, TopicConfig{Partitions: 1})
	}
	got := b.Topics()
	want := []string{"alpha", "mid", "zeta"}
	if len(got) != len(want) {
		t.Fatalf("Topics() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Topics() = %v, want %v", got, want)
		}
	}
}

func TestProduceConsumeRoundTrip(t *testing.T) {
	b := New()
	mustCreate(t, b, "t", TopicConfig{Partitions: 1})
	p := newProducer(t, b, ProducerConfig{BatchSize: 3})
	for i := range 10 {
		if err := p.Send("t", nil, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	c := newConsumer(t, b, ConsumerConfig{MaxPollRecords: 4})
	if err := c.Assign("t", 0, 0); err != nil {
		t.Fatal(err)
	}
	var got []Record
	for {
		recs, err := c.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		got = append(got, recs...)
	}
	if len(got) != 10 {
		t.Fatalf("consumed %d records, want 10", len(got))
	}
	for i, r := range got {
		if r.Offset != int64(i) {
			t.Errorf("record %d offset = %d", i, r.Offset)
		}
		if want := fmt.Sprintf("v%d", i); string(r.Value) != want {
			t.Errorf("record %d value = %q, want %q", i, r.Value, want)
		}
		if r.Topic != "t" || r.Partition != 0 {
			t.Errorf("record %d coordinates = %s/%d", i, r.Topic, r.Partition)
		}
	}
}

func TestLogAppendTimeOverridesSendTime(t *testing.T) {
	fixed := time.Date(2026, 6, 11, 12, 0, 0, 0, time.UTC)
	b := New(WithClock(func() time.Time { return fixed }))
	mustCreate(t, b, "t", TopicConfig{Partitions: 1, Timestamps: LogAppendTime})
	p := newProducer(t, b, ProducerConfig{BatchSize: 1})
	past := fixed.Add(-time.Hour)
	if err := p.SendAt("t", nil, []byte("x"), past); err != nil {
		t.Fatal(err)
	}
	c := newConsumer(t, b, ConsumerConfig{})
	if err := c.Assign("t", 0, 0); err != nil {
		t.Fatal(err)
	}
	recs, err := c.Poll()
	if err != nil || len(recs) != 1 {
		t.Fatalf("Poll = %v, %v; want 1 record", recs, err)
	}
	if !recs[0].Timestamp.Equal(fixed) {
		t.Errorf("timestamp = %v, want broker clock %v", recs[0].Timestamp, fixed)
	}
}

func TestCreateTimeKeepsSendTime(t *testing.T) {
	b := New()
	mustCreate(t, b, "t", TopicConfig{Partitions: 1, Timestamps: CreateTime})
	p := newProducer(t, b, ProducerConfig{BatchSize: 1})
	ts := time.Date(2020, 1, 2, 3, 4, 5, 0, time.UTC)
	if err := p.SendAt("t", nil, []byte("x"), ts); err != nil {
		t.Fatal(err)
	}
	c := newConsumer(t, b, ConsumerConfig{})
	if err := c.Assign("t", 0, 0); err != nil {
		t.Fatal(err)
	}
	recs, err := c.Poll()
	if err != nil || len(recs) != 1 {
		t.Fatalf("Poll = %v, %v; want 1 record", recs, err)
	}
	if !recs[0].Timestamp.Equal(ts) {
		t.Errorf("timestamp = %v, want CreateTime %v", recs[0].Timestamp, ts)
	}
}

func TestTimeSpan(t *testing.T) {
	now := time.Date(2026, 6, 11, 12, 0, 0, 0, time.UTC)
	clock := now
	b := New(WithClock(func() time.Time { return clock }))
	mustCreate(t, b, "t", TopicConfig{Partitions: 1})
	p := newProducer(t, b, ProducerConfig{BatchSize: 1})

	if err := p.Send("t", nil, []byte("first")); err != nil {
		t.Fatal(err)
	}
	clock = now.Add(3 * time.Second)
	if err := p.Send("t", nil, []byte("last")); err != nil {
		t.Fatal(err)
	}

	first, last, n, err := b.TimeSpan("t")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("n = %d, want 2", n)
	}
	if got := last.Sub(first); got != 3*time.Second {
		t.Errorf("span = %v, want 3s", got)
	}
}

func TestTimestamps(t *testing.T) {
	now := time.Date(2026, 6, 11, 12, 0, 0, 0, time.UTC)
	clock := now
	b := New(WithClock(func() time.Time { return clock }))
	mustCreate(t, b, "t", TopicConfig{Partitions: 1})
	p := newProducer(t, b, ProducerConfig{BatchSize: 1})
	for i := range 3 {
		clock = now.Add(time.Duration(i) * time.Second)
		if err := p.Send("t", nil, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}

	ts, err := b.Timestamps("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 {
		t.Fatalf("got %d timestamps, want 3", len(ts))
	}
	for i, want := range []time.Time{now, now.Add(time.Second), now.Add(2 * time.Second)} {
		if !ts[i].Equal(want) {
			t.Errorf("timestamp %d = %v, want %v", i, ts[i], want)
		}
	}

	if _, err := b.Timestamps("missing", 0); !errors.Is(err, ErrUnknownTopic) {
		t.Errorf("unknown topic error = %v", err)
	}
	if _, err := b.Timestamps("t", 7); !errors.Is(err, ErrUnknownPartition) {
		t.Errorf("unknown partition error = %v", err)
	}
	if err := b.SetPartitionOffline("t", 0, true); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Timestamps("t", 0); !errors.Is(err, ErrPartitionOffline) {
		t.Errorf("offline partition error = %v", err)
	}
}

func TestTimestampsMonotonicPerPartition(t *testing.T) {
	// Even if the clock goes backwards, stored timestamps must not.
	times := []time.Time{
		time.Unix(100, 0), time.Unix(50, 0), time.Unix(200, 0), time.Unix(150, 0),
	}
	i := 0
	b := New(WithClock(func() time.Time { ts := times[i%len(times)]; i++; return ts }))
	mustCreate(t, b, "t", TopicConfig{Partitions: 1})
	p := newProducer(t, b, ProducerConfig{BatchSize: 1})
	for range 4 {
		if err := p.Send("t", nil, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	c := newConsumer(t, b, ConsumerConfig{})
	if err := c.Assign("t", 0, 0); err != nil {
		t.Fatal(err)
	}
	recs, err := c.Poll()
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < len(recs); j++ {
		if recs[j].Timestamp.Before(recs[j-1].Timestamp) {
			t.Errorf("timestamp at offset %d (%v) before predecessor (%v)",
				j, recs[j].Timestamp, recs[j-1].Timestamp)
		}
	}
}

func TestPartitionOfflineInjection(t *testing.T) {
	b := New()
	mustCreate(t, b, "t", TopicConfig{Partitions: 1})
	if err := b.SetPartitionOffline("t", 0, true); err != nil {
		t.Fatal(err)
	}
	p := newProducer(t, b, ProducerConfig{BatchSize: 1})
	if err := p.Send("t", nil, []byte("x")); !errors.Is(err, ErrPartitionOffline) {
		t.Errorf("produce to offline partition error = %v, want ErrPartitionOffline", err)
	}
	c := newConsumer(t, b, ConsumerConfig{})
	if err := c.Assign("t", 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Poll(); !errors.Is(err, ErrPartitionOffline) {
		t.Errorf("fetch from offline partition error = %v, want ErrPartitionOffline", err)
	}
	// Recovery.
	if err := b.SetPartitionOffline("t", 0, false); err != nil {
		t.Fatal(err)
	}
	if err := p.Send("t", nil, []byte("x")); err != nil {
		t.Errorf("produce after recovery: %v", err)
	}
}

func TestSetPartitionOfflineErrors(t *testing.T) {
	b := New()
	mustCreate(t, b, "t", TopicConfig{Partitions: 1})
	if err := b.SetPartitionOffline("nope", 0, true); !errors.Is(err, ErrUnknownTopic) {
		t.Errorf("unknown topic error = %v", err)
	}
	if err := b.SetPartitionOffline("t", 5, true); !errors.Is(err, ErrUnknownPartition) {
		t.Errorf("unknown partition error = %v", err)
	}
}

func TestClosedBroker(t *testing.T) {
	b := New()
	mustCreate(t, b, "t", TopicConfig{Partitions: 1})
	b.Close()
	if err := b.CreateTopic("u", TopicConfig{Partitions: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("CreateTopic after close = %v, want ErrClosed", err)
	}
	if _, err := b.Partitions("t"); !errors.Is(err, ErrClosed) {
		t.Errorf("Partitions after close = %v, want ErrClosed", err)
	}
	if err := b.DeleteTopic("t"); !errors.Is(err, ErrClosed) {
		t.Errorf("DeleteTopic after close = %v, want ErrClosed", err)
	}
}

func TestEndOffsetsAndRecordCount(t *testing.T) {
	b := New()
	mustCreate(t, b, "t", TopicConfig{Partitions: 3})
	p := newProducer(t, b, ProducerConfig{BatchSize: 1, Partitioner: func(key []byte, n int) int {
		return int(key[0]) % n
	}})
	for i := range 7 {
		if err := p.Send("t", []byte{byte(i)}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	ends, err := b.EndOffsets("t")
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range ends {
		total += e
	}
	if total != 7 {
		t.Errorf("sum of end offsets = %d, want 7", total)
	}
	count, err := b.RecordCount("t")
	if err != nil {
		t.Fatal(err)
	}
	if count != 7 {
		t.Errorf("RecordCount = %d, want 7", count)
	}
}

func TestProducerSendIsolation(t *testing.T) {
	// Mutating the caller's buffer after Send must not affect the log.
	b := New()
	mustCreate(t, b, "t", TopicConfig{Partitions: 1})
	p := newProducer(t, b, ProducerConfig{BatchSize: 10})
	buf := []byte("orig")
	if err := p.Send("t", nil, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	c := newConsumer(t, b, ConsumerConfig{})
	if err := c.Assign("t", 0, 0); err != nil {
		t.Fatal(err)
	}
	recs, err := c.Poll()
	if err != nil || len(recs) != 1 {
		t.Fatalf("poll: %v %v", recs, err)
	}
	if string(recs[0].Value) != "orig" {
		t.Errorf("value = %q, want %q", recs[0].Value, "orig")
	}
}

func TestPollWaitTimesOut(t *testing.T) {
	b := New()
	mustCreate(t, b, "t", TopicConfig{Partitions: 1})
	c := newConsumer(t, b, ConsumerConfig{})
	if err := c.Assign("t", 0, 0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	recs, err := c.PollWait(30 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("got %d records from empty topic", len(recs))
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Error("PollWait returned before timeout")
	}
}

func TestPollWaitWakesOnProduce(t *testing.T) {
	b := New()
	mustCreate(t, b, "t", TopicConfig{Partitions: 1})
	c := newConsumer(t, b, ConsumerConfig{})
	if err := c.Assign("t", 0, 0); err != nil {
		t.Fatal(err)
	}
	done := make(chan []Record, 1)
	go func() {
		recs, err := c.PollWait(5 * time.Second)
		if err != nil {
			done <- nil
			return
		}
		done <- recs
	}()
	time.Sleep(10 * time.Millisecond)
	p := newProducer(t, b, ProducerConfig{BatchSize: 1})
	if err := p.Send("t", nil, []byte("wake")); err != nil {
		t.Fatal(err)
	}
	select {
	case recs := <-done:
		if len(recs) != 1 || string(recs[0].Value) != "wake" {
			t.Errorf("PollWait returned %v", recs)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("PollWait did not wake on produce")
	}
}

func TestProducerConfigValidation(t *testing.T) {
	b := New()
	if _, err := b.NewProducer(ProducerConfig{BatchSize: -1}); err == nil {
		t.Error("negative batch size accepted")
	}
	if _, err := b.NewProducer(ProducerConfig{Acks: 99}); err == nil {
		t.Error("invalid acks accepted")
	}
	if _, err := b.NewConsumer(ConsumerConfig{MaxPollRecords: -1}); err == nil {
		t.Error("negative max poll accepted")
	}
}

func TestProducerUnknownTopic(t *testing.T) {
	b := New()
	p := newProducer(t, b, ProducerConfig{})
	if err := p.Send("missing", nil, []byte("x")); !errors.Is(err, ErrUnknownTopic) {
		t.Errorf("Send to missing topic = %v, want ErrUnknownTopic", err)
	}
}

func TestProducerClosedRejectsSend(t *testing.T) {
	b := New()
	mustCreate(t, b, "t", TopicConfig{Partitions: 1})
	p := newProducer(t, b, ProducerConfig{})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Send("t", nil, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after close = %v, want ErrClosed", err)
	}
	if err := p.Close(); err != nil {
		t.Errorf("second close = %v, want nil", err)
	}
}

func TestProducerBuffering(t *testing.T) {
	b := New()
	mustCreate(t, b, "t", TopicConfig{Partitions: 1})
	p := newProducer(t, b, ProducerConfig{BatchSize: 5})
	for range 4 {
		if err := p.Send("t", nil, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Buffered(); got != 4 {
		t.Errorf("Buffered = %d, want 4", got)
	}
	count, err := b.RecordCount("t")
	if err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Errorf("records visible before batch full: %d", count)
	}
	// The fifth send crosses the batch size and flushes.
	if err := p.Send("t", nil, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := p.Buffered(); got != 0 {
		t.Errorf("Buffered after auto-flush = %d, want 0", got)
	}
	count, err = b.RecordCount("t")
	if err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("RecordCount = %d, want 5", count)
	}
}

func TestHashPartitionerStability(t *testing.T) {
	key := []byte("user-42")
	p1 := HashPartitioner(key, 8)
	p2 := HashPartitioner(key, 8)
	if p1 != p2 {
		t.Error("HashPartitioner not deterministic")
	}
	if p1 < 0 || p1 >= 8 {
		t.Errorf("partition %d out of range", p1)
	}
	if HashPartitioner(nil, 8) != 0 {
		t.Error("keyless record should map to partition 0")
	}
	if HashPartitioner(key, 1) != 0 {
		t.Error("single partition must map to 0")
	}
}

func TestConsumerPositionTracking(t *testing.T) {
	b := New()
	mustCreate(t, b, "t", TopicConfig{Partitions: 1})
	p := newProducer(t, b, ProducerConfig{BatchSize: 1})
	for range 3 {
		if err := p.Send("t", nil, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	c := newConsumer(t, b, ConsumerConfig{MaxPollRecords: 2})
	if err := c.Assign("t", 0, 1); err != nil {
		t.Fatal(err)
	}
	recs, err := c.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Offset != 1 {
		t.Fatalf("poll from offset 1 = %+v", recs)
	}
	pos, ok := c.Position("t", 0)
	if !ok || pos != 3 {
		t.Errorf("Position = %d, %v; want 3, true", pos, ok)
	}
}

func TestConsumerAssignErrors(t *testing.T) {
	b := New()
	mustCreate(t, b, "t", TopicConfig{Partitions: 1})
	c := newConsumer(t, b, ConsumerConfig{})
	if err := c.Assign("missing", 0, 0); !errors.Is(err, ErrUnknownTopic) {
		t.Errorf("assign missing topic = %v", err)
	}
	if err := c.Assign("t", 9, 0); !errors.Is(err, ErrUnknownPartition) {
		t.Errorf("assign missing partition = %v", err)
	}
	if err := c.Assign("t", 0, -1); err == nil {
		t.Error("negative offset accepted")
	}
}

func TestAssignAllCoversPartitions(t *testing.T) {
	b := New()
	mustCreate(t, b, "t", TopicConfig{Partitions: 3})
	c := newConsumer(t, b, ConsumerConfig{})
	if err := c.AssignAll("t"); err != nil {
		t.Fatal(err)
	}
	got := c.Assignments()
	want := []string{"t/0", "t/1", "t/2"}
	if len(got) != len(want) {
		t.Fatalf("Assignments = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Assignments = %v, want %v", got, want)
		}
	}
}

func TestAcksString(t *testing.T) {
	tests := []struct {
		give Acks
		want string
	}{
		{give: AcksNone, want: "0"},
		{give: AcksLeader, want: "1"},
		{give: AcksAll, want: "all"},
		{give: Acks(42), want: "Acks(42)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("Acks(%d).String() = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestTimestampTypeString(t *testing.T) {
	if CreateTime.String() != "CreateTime" || LogAppendTime.String() != "LogAppendTime" {
		t.Error("unexpected TimestampType strings")
	}
	if TimestampType(9).String() != "TimestampType(9)" {
		t.Errorf("unknown type string = %q", TimestampType(9).String())
	}
}
