package beam

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"
)

func TestBytesCoderRoundTrip(t *testing.T) {
	f := func(b []byte) bool {
		enc, err := (BytesCoder{}).Encode(b)
		if err != nil {
			return false
		}
		dec, err := (BytesCoder{}).Decode(enc)
		if err != nil {
			return false
		}
		return bytes.Equal(dec.([]byte), b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCodersAliasTheirInput pins the ownership rule on the coders: the
// bytes coder's frame is its element, and the composite coders decode
// []byte components as capacity-capped sub-slices of the frame, so a
// decode costs the boxing of the result and no copy.
func TestCodersAliasTheirInput(t *testing.T) {
	src := []byte("data")
	enc, err := (BytesCoder{}).Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := (BytesCoder{}).Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if &enc[0] != &src[0] || &dec.([]byte)[0] != &src[0] {
		t.Error("bytes coder copied its input")
	}
	var elem any = src
	if n := testing.AllocsPerRun(100, func() {
		enc, _ := (BytesCoder{}).Encode(elem)
		elem, _ = (BytesCoder{}).Decode(enc)
	}); n > 1 {
		t.Errorf("bytes round trip: %v allocations, want at most the boxing of the decoded slice", n)
	}

	inFrame := func(frame, part []byte) bool {
		if len(part) == 0 {
			return true
		}
		for i := range frame {
			if &frame[i] == &part[0] {
				return cap(part) == len(part) && i+len(part) <= len(frame)
			}
		}
		return false
	}
	kvCoder := KVCoder{Key: BytesCoder{}, Value: BytesCoder{}}
	frame, err := kvCoder.Encode(KV{Key: []byte("key"), Value: []byte("value")})
	if err != nil {
		t.Fatal(err)
	}
	got, err := kvCoder.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if kv := got.(KV); !inFrame(frame, kv.Key.([]byte)) || !inFrame(frame, kv.Value.([]byte)) {
		t.Error("kv coder: decoded key/value are not capped sub-slices of the frame")
	}

	frame, err = (KafkaRecordCoder{}).Encode(KafkaRecord{Topic: "t", Key: []byte("key"), Value: []byte("value")})
	if err != nil {
		t.Fatal(err)
	}
	got, err = (KafkaRecordCoder{}).Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if r := got.(KafkaRecord); !inFrame(frame, r.Key) || !inFrame(frame, r.Value) {
		t.Error("kafka record coder: decoded key/value are not capped sub-slices of the frame")
	}
}

func TestBytesCoderTypeError(t *testing.T) {
	if _, err := (BytesCoder{}).Encode("not bytes"); err == nil {
		t.Error("string accepted by bytes coder")
	}
}

func TestStringCoderRoundTrip(t *testing.T) {
	f := func(s string) bool {
		enc, err := (StringUTF8Coder{}).Encode(s)
		if err != nil {
			return false
		}
		dec, err := (StringUTF8Coder{}).Decode(enc)
		return err == nil && dec.(string) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := (StringUTF8Coder{}).Encode(42); err == nil {
		t.Error("int accepted by string coder")
	}
}

func TestVarIntCoderRoundTrip(t *testing.T) {
	f := func(n int64) bool {
		enc, err := (VarIntCoder{}).Encode(n)
		if err != nil {
			return false
		}
		dec, err := (VarIntCoder{}).Decode(enc)
		return err == nil && dec.(int64) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Plain int is accepted too.
	enc, err := (VarIntCoder{}).Encode(7)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := (VarIntCoder{}).Decode(enc)
	if err != nil || dec.(int64) != 7 {
		t.Errorf("int round trip = %v, %v", dec, err)
	}
	if _, err := (VarIntCoder{}).Encode("x"); err == nil {
		t.Error("string accepted by varint coder")
	}
	if _, err := (VarIntCoder{}).Decode(nil); err == nil {
		t.Error("empty input decoded")
	}
}

func TestKVCoderRoundTrip(t *testing.T) {
	c := KVCoder{Key: BytesCoder{}, Value: BytesCoder{}}
	f := func(k, v []byte) bool {
		enc, err := c.Encode(KV{Key: k, Value: v})
		if err != nil {
			return false
		}
		dec, err := c.Decode(enc)
		if err != nil {
			return false
		}
		kv := dec.(KV)
		return bytes.Equal(kv.Key.([]byte), k) && bytes.Equal(kv.Value.([]byte), v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKVCoderErrors(t *testing.T) {
	c := KVCoder{Key: BytesCoder{}, Value: BytesCoder{}}
	if _, err := c.Encode("not a kv"); err == nil {
		t.Error("non-KV accepted")
	}
	if _, err := c.Encode(KV{Key: "string", Value: []byte("v")}); err == nil {
		t.Error("mismatched key type accepted")
	}
	if _, err := c.Decode([]byte{0xFF}); err == nil {
		t.Error("garbage decoded")
	}
	missing := KVCoder{}
	if _, err := missing.Encode(KV{}); err == nil {
		t.Error("missing component coders accepted")
	}
	if got := c.Name(); got != "kv<bytes,bytes>" {
		t.Errorf("Name = %q", got)
	}
}

func TestKafkaRecordCoderRoundTrip(t *testing.T) {
	c := KafkaRecordCoder{}
	f := func(topic string, part uint8, off int64, key, val []byte, zeroTime bool) bool {
		rec := KafkaRecord{
			Topic:     topic,
			Partition: int(part),
			Offset:    off,
			Timestamp: time.Unix(0, 1234567890).UTC(),
			Key:       key,
			Value:     val,
		}
		if zeroTime {
			rec.Timestamp = time.Time{}
		}
		enc, err := c.Encode(rec)
		if err != nil {
			return false
		}
		dec, err := c.Decode(enc)
		if err != nil {
			return false
		}
		got := dec.(KafkaRecord)
		return got.Topic == rec.Topic &&
			got.Partition == rec.Partition &&
			got.Offset == rec.Offset &&
			got.Timestamp.Equal(rec.Timestamp) &&
			bytes.Equal(got.Key, rec.Key) &&
			bytes.Equal(got.Value, rec.Value)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// The zero time has no UnixNano; it must come back as itself, which
	// is what the runners that never encode a record hand their DoFns.
	enc, err := c.Encode(KafkaRecord{Topic: "t", Value: []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if ts := dec.(KafkaRecord).Timestamp; ts != (time.Time{}) {
		t.Errorf("zero Timestamp decodes as %v, want time.Time{}", ts)
	}
	if _, err := c.Encode(42); err == nil {
		t.Error("non-record accepted")
	}
	if _, err := c.Decode([]byte{0xFF, 0xFF}); err == nil {
		t.Error("garbage decoded")
	}
}

func TestGroupedCoderRoundTrip(t *testing.T) {
	c := GroupedCoder{}
	g := Grouped{Key: "k", Values: []any{"a", "b", "c"}}
	enc, err := c.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	got := dec.(Grouped)
	if got.Key != "k" || len(got.Values) != 3 || got.Values[1] != "b" {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := c.Encode("nope"); err == nil {
		t.Error("non-grouped accepted")
	}
	if _, err := c.Encode(Grouped{Key: 42}); err == nil {
		t.Error("unsupported key type accepted")
	}
	if _, err := c.Decode([]byte{0xFF}); err == nil {
		t.Error("garbage decoded")
	}
}

func TestCoderNames(t *testing.T) {
	tests := []struct {
		give Coder
		want string
	}{
		{give: BytesCoder{}, want: "bytes"},
		{give: StringUTF8Coder{}, want: "stringutf8"},
		{give: VarIntCoder{}, want: "varint"},
		{give: KafkaRecordCoder{}, want: "kafkarecord"},
		{give: GroupedCoder{}, want: "grouped"},
	}
	for _, tt := range tests {
		if got := tt.give.Name(); got != tt.want {
			t.Errorf("Name() = %q, want %q", got, tt.want)
		}
	}
}
