// Package allowed exercises //beamvet:allow hotalloc suppression: an
// allocation that IS the operation's contract carries its rationale as
// the mandatory reason.
package allowed

type dec struct{}

func (d *dec) Decode(b []byte) string {
	//beamvet:allow hotalloc the decoded string is handed to the caller and must not alias the input buffer
	return string(b)
}

type producer struct{ log [][]byte }

// Send takes the record into the log: the one copy the ownership rule
// allows.
func (p *producer) Send(rec []byte) {
	//beamvet:allow hotalloc the one copy of a record's bytes: the caller keeps its buffer, the log keeps this
	own := make([]byte, len(rec))
	copy(own, rec)
	p.log = append(p.log, own)
}
