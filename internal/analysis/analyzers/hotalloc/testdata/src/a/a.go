// Package a is a hotalloc fixture: allocation patterns on per-record
// paths — conversions, fmt.Sprint*, unsized growth in loops, escaping
// closures, and whole-record copies — reached from the named entry points and through
// the same-package call graph.
package a

import "fmt"

type op struct {
	keys map[string]int
}

func (o *op) Process(rec []byte, emit func([]byte) error) error {
	k := string(rec) // want `\[\]byte->string conversion allocates and copies on a per-record path`
	o.keys[k]++
	if o.keys[string(rec)] > 3 { // map index is compiler-optimized: no diagnostic
		return emit([]byte(k)) // want `string->\[\]byte conversion allocates and copies on a per-record path`
	}
	return o.tag(k, emit)
}

// tag is hot only because Process reaches it through the call graph.
func (o *op) tag(k string, emit func([]byte) error) error {
	msg := fmt.Sprintf("key=%s count=%d", k, o.keys[k]) // want `fmt.Sprintf formats through reflection on a per-record path`
	return emit([]byte(msg))                            // want `string->\[\]byte conversion allocates`
}

func (o *op) Encode(vals [][]byte) []byte {
	var out []byte
	index := make(map[string]int) // outside any loop: no diagnostic
	for i, v := range vals {
		scratch := make([]byte, 0) // want `make\(slice, 0\) without capacity inside a per-record loop`
		scratch = append(scratch, v...)
		out = append(out, scratch...) // want `append grows out inside a per-record loop`
		index[string(v)] = i          // map index: no diagnostic
	}
	return out
}

type packer struct{ scratch []byte }

// Encode reuses a scratch buffer: the reslice-initialized local is
// capacity-managed, its growth amortizes to zero, and nothing is
// flagged.
func (p *packer) Encode(vals [][]byte) []byte {
	out := p.scratch[:0]
	for _, v := range vals {
		out = append(out, v...)
	}
	p.scratch = out
	return out
}

func (o *op) Decode(b []byte) (string, bool) {
	s := string(b)      // want `\[\]byte->string conversion allocates`
	if s == string(b) { // comparison is compiler-optimized: no diagnostic
		return s, true
	}
	return fmt.Sprintln(s), false // want `fmt.Sprintln formats through reflection`
}

func (o *op) ProcessElement(rec []byte) error {
	limit := len(rec)
	defer func() { limit = 0 }()                           // deferred: no diagnostic
	check := func(b []byte) bool { return len(b) < limit } // want `closure captures limit on a per-record path`
	if check(rec) {
		return nil
	}
	func() { limit++ }() // immediately invoked: no diagnostic
	return nil
}

type hop struct{ out chan []byte }

// Collect copies the record before handing it on, in both spellings: a
// defensive copy of bytes nobody writes into.
func (h *hop) Collect(rec []byte) error {
	wire := make([]byte, len(rec)) // want `make\(\[\]byte, len\(x\)\) \+ copy copies a whole record on a per-record path`
	copy(wire, rec)
	h.out <- wire
	h.out <- append([]byte(nil), rec...)  // want `append\(\[\]byte\(nil\), x...\) copies a whole record on a per-record path`
	h.out <- append([]byte{}, rec[1:]...) // want `append\(\[\]byte\(nil\), x...\) copies a whole record`
	return nil
}

// Send sizes a frame from the record and appends into it: a new
// encoding, not a copy of the record, and nothing is flagged.
func (h *hop) Send(rec []byte) {
	frame := make([]byte, len(rec)+1)
	frame[0] = byte(len(rec))
	copy(frame[1:], rec)
	scratch := make([]byte, len(rec)) // sized from the record but never filled from it
	h.out <- append(frame, scratch...)
}

type reshape struct{ tag string }

// FrameRewrite runs once per stage, so nothing in its own body is
// flagged; the rewrite it returns takes a frame, which makes it a
// per-record body by shape.
func (r reshape) FrameRewrite() func(frame []byte) ([]byte, error) {
	prefix := []byte(r.tag) // once per stage: no diagnostic
	return func(frame []byte) ([]byte, error) {
		if len(frame) == 0 {
			return prefix, nil
		}
		return []byte(string(frame[1:])), nil // want `string->\[\]byte conversion allocates` `\[\]byte->string conversion allocates`
	}
}

// setup is not reachable from any per-record entry point: allocation
// there is startup cost, not per-record cost.
func setup(names []string) map[string]int {
	m := make(map[string]int)
	for i, n := range names {
		m[fmt.Sprintf("op-%d", i)] = len(n)
	}
	return m
}
