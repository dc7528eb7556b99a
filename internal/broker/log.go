package broker

import "time"

// The log is stored in chunks of chunkSize entries. A chunk, once
// allocated at full size, is never moved, copied or cleared again, so
// the cost of an append is independent of how much the partition
// already holds — a log that doubled instead would re-copy and re-clear
// itself at every doubling, a driver artefact present in every cell of
// every workload.
const (
	chunkShift = 10
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1

	// firstChunkMin is the starting capacity of a partition's first
	// chunk. Only the first chunk grows (by doubling, up to chunkSize),
	// so that a three-record test topic does not pay for 1024 entries.
	firstChunkMin = 8
)

// storedRecord is the on-log representation of a record. Its key and
// value are immutable from the moment they are stored (see Record).
type storedRecord struct {
	key   []byte
	value []byte
	ts    time.Time
}

// recordLog is one partition's append-only sequence of records. Entry i
// lives at chunks[i>>chunkShift][i&chunkMask]; every chunk but the last
// is full. It has no lock of its own: the partition's guards it.
type recordLog struct {
	chunks [][]storedRecord
	n      int
}

func (l *recordLog) len() int { return l.n }

func (l *recordLog) at(i int) *storedRecord {
	return &l.chunks[i>>chunkShift][i&chunkMask]
}

// last returns the newest entry; the log must not be empty.
func (l *recordLog) last() *storedRecord { return l.at(l.n - 1) }

// append copies recs onto the end of the log, filling the last chunk
// and then starting new ones.
func (l *recordLog) append(recs []storedRecord) {
	for len(recs) > 0 {
		tail := len(l.chunks) - 1
		if tail < 0 || len(l.chunks[tail]) == cap(l.chunks[tail]) {
			tail = l.grow(len(recs))
		}
		c := l.chunks[tail]
		k := copy(c[len(c):cap(c)], recs)
		l.chunks[tail] = c[:len(c)+k]
		l.n += k
		recs = recs[k:]
	}
}

// grow makes room for up to want more entries behind a full (or
// missing) last chunk and returns the index of the chunk that has it.
// Only a first chunk below chunkSize is reallocated; otherwise a new
// chunk starts and nothing stored is touched.
func (l *recordLog) grow(want int) int {
	if len(l.chunks) == 1 && cap(l.chunks[0]) < chunkSize {
		grown := make([]storedRecord, l.n, firstChunkCap(l.n+want))
		copy(grown, l.chunks[0])
		l.chunks[0] = grown
		return 0
	}
	size := chunkSize
	if len(l.chunks) == 0 {
		size = firstChunkCap(want)
	}
	l.chunks = append(l.chunks, make([]storedRecord, 0, size))
	return len(l.chunks) - 1
}

// firstChunkCap is the smallest doubling of firstChunkMin that holds
// need entries, capped at chunkSize.
func firstChunkCap(need int) int {
	c := firstChunkMin
	for c < need && c < chunkSize {
		c *= 2
	}
	return c
}
