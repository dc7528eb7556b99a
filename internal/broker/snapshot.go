package broker

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"time"
)

// snapshot is the serializable form of a broker's stored state, used by
// the standalone CLI tools (cmd/datasender writes a snapshot that
// cmd/resultcalc and cmd/beambench can load).
type snapshot struct {
	Topics []topicSnapshot
}

type topicSnapshot struct {
	Name       string
	Config     TopicConfig
	Partitions []partitionSnapshot
}

type partitionSnapshot struct {
	Records []recordSnapshot
}

type recordSnapshot struct {
	Key   []byte
	Value []byte
	TS    time.Time
}

// SaveSnapshot serializes all topics, configurations and records to w.
func (b *Broker) SaveSnapshot(w io.Writer) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return ErrClosed
	}
	var snap snapshot
	for _, name := range b.topicNamesLocked() {
		t := b.topics[name]
		ts := topicSnapshot{Name: t.name, Config: t.cfg}
		for _, p := range t.parts {
			ts.Partitions = append(ts.Partitions, p.snapshot())
		}
		snap.Topics = append(snap.Topics, ts)
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("broker: encode snapshot: %w", err)
	}
	return nil
}

// LoadSnapshot restores topics from r into the broker. Topics that
// already exist cause an error.
func (b *Broker) LoadSnapshot(r io.Reader) error {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("broker: decode snapshot: %w", err)
	}
	for _, ts := range snap.Topics {
		if err := b.CreateTopic(ts.Name, ts.Config); err != nil {
			return err
		}
		t, err := b.topic(ts.Name)
		if err != nil {
			return err
		}
		for i, ps := range ts.Partitions {
			if i >= len(t.parts) {
				return fmt.Errorf("broker: snapshot topic %q has %d partitions, config says %d",
					ts.Name, len(ts.Partitions), len(t.parts))
			}
			recs := make([]storedRecord, len(ps.Records))
			for j, rs := range ps.Records {
				recs[j] = storedRecord{key: rs.Key, value: rs.Value, ts: rs.TS}
			}
			if _, err := t.parts[i].append(recs); err != nil {
				return fmt.Errorf("broker: restore %s/%d: %w", ts.Name, i, err)
			}
		}
	}
	return nil
}

func (b *Broker) topicNamesLocked() []string {
	names := make([]string, 0, len(b.topics))
	for n := range b.topics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (p *partition) snapshot() partitionSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	ps := partitionSnapshot{Records: make([]recordSnapshot, p.log.len())}
	for i := range ps.Records {
		r := p.log.at(i)
		ps.Records[i] = recordSnapshot{Key: r.key, Value: r.value, TS: r.ts}
	}
	return ps
}
