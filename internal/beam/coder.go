package beam

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Coder encodes and decodes elements at PCollection boundaries. Engine
// runners invoke coders whenever an element crosses a translated
// operator boundary — the serialization work behind a large share of the
// abstraction-layer overhead the paper measures. That work is charged
// (simcost CoderPerRecord); it is not re-enacted by copying.
//
// Encoded frames and decoded elements are immutable (the ownership rule
// on broker.Record): Encode may return bytes that alias the element,
// Decode may return an element that aliases the frame, and neither side
// writes into what it was handed or what it returned.
type Coder interface {
	// Name identifies the coder for compatibility checks.
	Name() string
	// Encode serializes an element.
	Encode(v any) ([]byte, error)
	// Decode reverses Encode.
	Decode(b []byte) (any, error)
}

// BytesCoder passes []byte elements through: the frame is the element.
type BytesCoder struct{}

// Name implements Coder.
func (BytesCoder) Name() string { return "bytes" }

// Encode implements Coder.
func (BytesCoder) Encode(v any) ([]byte, error) {
	b, ok := v.([]byte)
	if !ok {
		return nil, fmt.Errorf("beam: bytes coder: element %T is not []byte", v)
	}
	return b, nil
}

// Decode implements Coder.
func (BytesCoder) Decode(b []byte) (any, error) {
	return b, nil
}

// StringUTF8Coder codes string elements.
type StringUTF8Coder struct{}

// Name implements Coder.
func (StringUTF8Coder) Name() string { return "stringutf8" }

// Encode implements Coder.
func (StringUTF8Coder) Encode(v any) ([]byte, error) {
	s, ok := v.(string)
	if !ok {
		return nil, fmt.Errorf("beam: string coder: element %T is not a string", v)
	}
	//beamvet:allow hotalloc a string element has no byte view; this conversion is the encoding
	return []byte(s), nil
}

// Decode implements Coder.
func (StringUTF8Coder) Decode(b []byte) (any, error) {
	//beamvet:allow hotalloc a string element cannot alias the frame; this conversion is the decoding
	return string(b), nil
}

// VarIntCoder codes int64 (and int) elements as zig-zag varints.
type VarIntCoder struct{}

// Name implements Coder.
func (VarIntCoder) Name() string { return "varint" }

// Encode implements Coder.
func (VarIntCoder) Encode(v any) ([]byte, error) {
	var n int64
	switch x := v.(type) {
	case int64:
		n = x
	case int:
		n = int64(x)
	default:
		return nil, fmt.Errorf("beam: varint coder: element %T is not an integer", v)
	}
	buf := make([]byte, binary.MaxVarintLen64)
	return buf[:binary.PutVarint(buf, n)], nil
}

// Decode implements Coder.
func (VarIntCoder) Decode(b []byte) (any, error) {
	n, read := binary.Varint(b)
	if read <= 0 {
		return nil, errors.New("beam: varint coder: malformed input")
	}
	return n, nil
}

// KVCoder codes KV elements with length-prefixed key and value.
type KVCoder struct {
	Key   Coder
	Value Coder
}

// Name implements Coder.
func (c KVCoder) Name() string {
	return fmt.Sprintf("kv<%s,%s>", coderName(c.Key), coderName(c.Value))
}

func coderName(c Coder) string {
	if c == nil {
		return "nil"
	}
	return c.Name()
}

// Encode implements Coder.
func (c KVCoder) Encode(v any) ([]byte, error) {
	kv, ok := v.(KV)
	if !ok {
		return nil, fmt.Errorf("beam: kv coder: element %T is not a KV", v)
	}
	if c.Key == nil || c.Value == nil {
		return nil, errMissingKVCoder
	}
	kb, err := c.Key.Encode(kv.Key)
	if err != nil {
		return nil, fmt.Errorf("beam: kv coder key: %w", err)
	}
	vb, err := c.Value.Encode(kv.Value)
	if err != nil {
		return nil, fmt.Errorf("beam: kv coder value: %w", err)
	}
	return appendKVFrame(make([]byte, 0, kvFrameLen(kb, vb)), kb, vb), nil
}

// kvFrameLen is the length of the KV frame appendKVFrame writes.
func kvFrameLen(key, val []byte) int {
	return uvarintLen(uint64(len(key))) + len(key) + uvarintLen(uint64(len(val))) + len(val)
}

// appendKVFrame appends the KV wire format: the key then the value,
// each a uvarint length followed by that many bytes. A KafkaRecord
// frame ends in the same two fields, so its key/value tail is a
// KV<bytes,bytes> frame.
func appendKVFrame(out, key, val []byte) []byte {
	out = binary.AppendUvarint(out, uint64(len(key)))
	out = append(out, key...)
	out = binary.AppendUvarint(out, uint64(len(val)))
	return append(out, val...)
}

// uvarintLen is the length of x's minimal uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// lenPrefixed splits a uvarint-length-prefixed field off the front of
// b: the field (capped, so an append cannot reach the rest of the
// frame) and what follows it.
func lenPrefixed(b []byte) (field, rest []byte, ok bool) {
	l, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < l {
		return nil, nil, false
	}
	b = b[n:]
	return b[:l:l], b[l:], true
}

var (
	errMissingKVCoder = errors.New("beam: kv coder: missing component coder")
	errMalformedKVKey = errors.New("beam: kv coder: malformed key length")
	errMalformedKVVal = errors.New("beam: kv coder: malformed value length")
)

// splitKV splits a KV frame into its key and value sub-frames; bytes
// after the value are ignored.
func splitKV(b []byte) (key, val []byte, err error) {
	key, b, ok := lenPrefixed(b)
	if !ok {
		return nil, nil, errMalformedKVKey
	}
	val, _, ok = lenPrefixed(b)
	if !ok {
		return nil, nil, errMalformedKVVal
	}
	return key, val, nil
}

// Decode implements Coder.
func (c KVCoder) Decode(b []byte) (any, error) {
	if c.Key == nil || c.Value == nil {
		return nil, errMissingKVCoder
	}
	kb, vb, err := splitKV(b)
	if err != nil {
		return nil, err
	}
	key, err := c.Key.Decode(kb)
	if err != nil {
		return nil, fmt.Errorf("beam: kv coder key: %w", err)
	}
	val, err := c.Value.Decode(vb)
	if err != nil {
		return nil, fmt.Errorf("beam: kv coder value: %w", err)
	}
	return KV{Key: key, Value: val}, nil
}

// KafkaRecordCoder codes KafkaRecord elements (KafkaIO's raw output).
type KafkaRecordCoder struct{}

// Name implements Coder.
func (KafkaRecordCoder) Name() string { return "kafkarecord" }

// Encode implements Coder.
func (c KafkaRecordCoder) Encode(v any) ([]byte, error) {
	r, ok := v.(KafkaRecord)
	if !ok {
		return nil, fmt.Errorf("beam: kafka record coder: element %T is not a KafkaRecord", v)
	}
	return c.EncodeRecord(r), nil
}

// zeroTimeNanos encodes the zero Timestamp, whose UnixNano is undefined
// (year 1 is outside int64 nanoseconds since 1970). A record stamped
// with the instant math.MinInt64 ns after the epoch (in 1677) decodes
// as the zero time too.
const zeroTimeNanos = math.MinInt64

// EncodeRecord is Encode for a KafkaRecord, without boxing it.
func (KafkaRecordCoder) EncodeRecord(r KafkaRecord) []byte {
	ts := int64(zeroTimeNanos)
	if !r.Timestamp.IsZero() {
		ts = r.Timestamp.UnixNano()
	}
	out := make([]byte, 0, 4*binary.MaxVarintLen64+len(r.Topic)+kvFrameLen(r.Key, r.Value))
	out = binary.AppendUvarint(out, uint64(len(r.Topic)))
	out = append(out, r.Topic...)
	out = binary.AppendVarint(out, int64(r.Partition))
	out = binary.AppendVarint(out, r.Offset)
	out = binary.AppendVarint(out, ts)
	return appendKVFrame(out, r.Key, r.Value)
}

var errMalformedKafkaRecord = errors.New("beam: kafka record coder: malformed input")

// kafkaRecordFrame is a KafkaRecord frame split into its fields; topic,
// key and value alias the frame, and kv is the key/value tail from the
// key's length prefix to the end of the frame.
type kafkaRecordFrame struct {
	topic                   []byte
	partition, offset, nano int64
	key, value, kv          []byte
}

// splitKafkaRecord splits a KafkaRecord frame; bytes after the value
// are ignored.
func splitKafkaRecord(b []byte) (f kafkaRecordFrame, err error) {
	var ok bool
	f.topic, b, ok = lenPrefixed(b)
	f.partition, b, ok = varint(b, ok)
	f.offset, b, ok = varint(b, ok)
	f.nano, b, ok = varint(b, ok)
	if !ok {
		return f, errMalformedKafkaRecord
	}
	f.kv = b[:len(b):len(b)]
	if f.key, f.value, err = splitKV(b); err != nil {
		return f, errMalformedKafkaRecord
	}
	return f, nil
}

// varint reads a varint off the front of b when ok, which it passes on.
func varint(b []byte, ok bool) (int64, []byte, bool) {
	if !ok {
		return 0, nil, false
	}
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, false
	}
	return v, b[n:], true
}

// Decode implements Coder. Key and Value are sub-slices of the frame.
func (KafkaRecordCoder) Decode(b []byte) (any, error) {
	f, err := splitKafkaRecord(b)
	if err != nil {
		return nil, err
	}
	ts := time.Time{}
	if f.nano != zeroTimeNanos {
		ts = time.Unix(0, f.nano).UTC()
	}
	return KafkaRecord{
		//beamvet:allow hotalloc the topic is a string field; it cannot alias the frame
		Topic:     string(f.topic),
		Partition: int(f.partition),
		Offset:    f.offset,
		Timestamp: ts,
		Key:       f.key,
		Value:     f.value,
	}, nil
}

// GroupedCoder codes Grouped elements; only string/bytes keys and values
// are supported, sufficient for the SDK's built-in aggregations. The
// pane's window travels with the element (a kind tag plus interval
// bounds), so windowed aggregates keep their window across the engine
// runners' coder boundaries.
type GroupedCoder struct{}

// Name implements Coder.
func (GroupedCoder) Name() string { return "grouped" }

// Window kind tags in the Grouped wire format.
const (
	groupedGlobalWindow   = 0
	groupedIntervalWindow = 1
)

// Encode implements Coder.
func (GroupedCoder) Encode(v any) ([]byte, error) {
	g, ok := v.(Grouped)
	if !ok {
		return nil, fmt.Errorf("beam: grouped coder: element %T is not Grouped", v)
	}
	key, err := scalarToBytes(g.Key)
	if err != nil {
		return nil, err
	}
	// One sizing pass keeps the per-group encode to a single
	// allocation: varint headers are bounded by MaxVarintLen64, and the
	// values are strings or byte slices whose lengths are known.
	size := 2 + 4*binary.MaxVarintLen64 + len(key)
	for _, val := range g.Values {
		size += binary.MaxVarintLen64
		switch x := val.(type) {
		case string:
			size += len(x)
		case []byte:
			size += len(x)
		}
	}
	out := make([]byte, 0, size)
	out = binary.AppendUvarint(out, uint64(len(key)))
	out = append(out, key...)
	switch w := g.Window.(type) {
	case nil, GlobalWindow:
		out = append(out, groupedGlobalWindow)
	case IntervalWindow:
		out = append(out, groupedIntervalWindow)
		out = binary.AppendVarint(out, w.Start.UnixNano())
		out = binary.AppendVarint(out, w.End.UnixNano())
	default:
		return nil, fmt.Errorf("beam: grouped coder: unsupported window type %T", g.Window)
	}
	out = binary.AppendUvarint(out, uint64(len(g.Values)))
	for _, val := range g.Values {
		vb, err := scalarToBytes(val)
		if err != nil {
			return nil, err
		}
		out = binary.AppendUvarint(out, uint64(len(vb)))
		out = append(out, vb...)
	}
	return out, nil
}

var errMalformedGrouped = errors.New("beam: grouped coder: malformed input")

// Decode implements Coder. Keys and values decode as strings.
func (GroupedCoder) Decode(b []byte) (any, error) {
	klen, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < klen {
		return nil, errMalformedGrouped
	}
	b = b[n:]
	//beamvet:allow hotalloc keys decode as strings, which cannot alias the frame
	g := Grouped{Key: string(b[:klen])}
	b = b[klen:]
	if len(b) == 0 {
		return nil, errMalformedGrouped
	}
	kind := b[0]
	b = b[1:]
	switch kind {
	case groupedGlobalWindow:
		g.Window = GlobalWindow{}
	case groupedIntervalWindow:
		start, n := binary.Varint(b)
		if n <= 0 {
			return nil, errMalformedGrouped
		}
		b = b[n:]
		end, n := binary.Varint(b)
		if n <= 0 {
			return nil, errMalformedGrouped
		}
		b = b[n:]
		g.Window = IntervalWindow{Start: time.Unix(0, start).UTC(), End: time.Unix(0, end).UTC()}
	default:
		return nil, errMalformedGrouped
	}
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, errMalformedGrouped
	}
	b = b[n:]
	g.Values = make([]any, 0, count)
	for range count {
		vlen, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < vlen {
			return nil, errMalformedGrouped
		}
		b = b[n:]
		//beamvet:allow hotalloc values decode as strings, which cannot alias the frame
		g.Values = append(g.Values, string(b[:vlen]))
		b = b[vlen:]
	}
	return g, nil
}

func scalarToBytes(v any) ([]byte, error) {
	switch x := v.(type) {
	case string:
		//beamvet:allow hotalloc a string component has no byte view; callers append the bytes into the frame
		return []byte(x), nil
	case []byte:
		return x, nil
	default:
		return nil, fmt.Errorf("beam: grouped coder: unsupported component %T", v)
	}
}
