package graphx_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
	"time"

	"beambench/internal/beam"
	"beambench/internal/beam/graphx"
)

// frameFns returns the DoFns of WithoutMetadata and Values as a
// pipeline holds them.
func frameFns(tb testing.TB) (withoutMetadata, values beam.DoFn) {
	tb.Helper()
	p := beam.NewPipeline()
	recs := beam.Create(p, []any{beam.KafkaRecord{}}, beam.WithCoder(beam.KafkaRecordCoder{}))
	beam.Values(p, beam.WithoutMetadata(p, recs))
	for _, tr := range p.Transforms() {
		switch tr.Name {
		case "WithoutMetadata":
			withoutMetadata = tr.Fn
		case "Values":
			values = tr.Fn
		}
	}
	if withoutMetadata == nil || values == nil {
		tb.Fatal("pipeline lacks WithoutMetadata or Values")
	}
	return withoutMetadata, values
}

// frameShape is a stage that runs on frames, with the canonical frames
// its input coder writes.
type frameShape struct {
	name  string
	x     graphx.Executable
	valid [][]byte
}

func frameShapes(tb testing.TB) []frameShape {
	withoutMetadata, values := frameFns(tb)
	bytesCoder := beam.BytesCoder{}
	recCoder := beam.KafkaRecordCoder{}
	kvCoder := beam.KVCoder{Key: bytesCoder, Value: bytesCoder}
	big := bytes.Repeat([]byte("v"), 300) // a two-byte length
	payloads := [][]byte{nil, []byte("payload"), big}
	var recs, kvs [][]byte
	for _, val := range payloads {
		for _, key := range [][]byte{nil, []byte("key")} {
			recs = append(recs, recordFrame("topic", key, val, false))
			kvs = append(kvs, kvFrame(key, val, false))
		}
	}
	return []frameShape{
		{"WithoutMetadata", graphx.Executable{Fn: withoutMetadata, Decode: recCoder, Encode: kvCoder}, recs},
		{"Values", graphx.Executable{Fn: values, Decode: kvCoder, Encode: bytesCoder}, kvs},
		{"read expansion", graphx.Executable{Wrap: "in", Encode: recCoder}, payloads},
		{"write serializer", graphx.Executable{Decode: bytesCoder}, payloads},
		{"write serializer into the Apex sink", graphx.Executable{Decode: bytesCoder, SinkCharge: sink}, payloads},
		{"forward", graphx.Executable{}, payloads},
	}
}

// lenPrefix writes b's length and b, the length padded to a non-minimal
// uvarint when padded.
func lenPrefix(b []byte, padded bool) []byte {
	out := binary.AppendUvarint(nil, uint64(len(b)))
	if padded {
		out[len(out)-1] |= 0x80
		out = append(out, 0)
	}
	return append(out, b...)
}

func kvFrame(key, val []byte, padded bool) []byte {
	return append(lenPrefix(key, padded), lenPrefix(val, padded)...)
}

func recordFrame(topic string, key, val []byte, padded bool) []byte {
	out := lenPrefix([]byte(topic), padded)
	out = binary.AppendVarint(out, 3)          // partition
	out = binary.AppendVarint(out, 1234)       // offset
	out = binary.AppendVarint(out, 1234567890) // timestamp
	return append(out, kvFrame(key, val, padded)...)
}

// elementPath is the same stage forced onto the element path: the same
// fn (or a pass-through one) behind a DoFnFunc, which offers no frame
// rewrite.
func elementPath(x graphx.Executable) graphx.Executable {
	if x.Fn == nil {
		x.Fn = beam.DoFnFunc(func(_ beam.Context, elem any, emit beam.Emitter) error { return emit(elem) })
	} else {
		x.Fn = beam.DoFnFunc(x.Fn.ProcessElement)
	}
	return x
}

// stageRun is what one record did in a stage.
type stageRun struct {
	out     [][]byte
	charges []time.Duration
	err     error
}

func runStage(tb testing.TB, x graphx.Executable, rec []byte, emitErr error) stageRun {
	tb.Helper()
	x.Name, x.Costs = "stage", primeCosts
	var r stageRun
	process, err := x.Bind(func(d time.Duration) { r.charges = append(r.charges, d) })
	if err != nil {
		tb.Fatal(err)
	}
	r.err = process(rec, func(b []byte) error {
		r.out = append(r.out, b)
		return emitErr
	})
	return r
}

// checkParity runs rec through the shape's stage on frames and on
// elements, with an emit that succeeds and one that fails, and requires
// the same output bytes, charges and errors, a decode failure carrying
// the input coder's own error, and rec untouched.
func checkParity(tb testing.TB, shape frameShape, rec []byte) {
	tb.Helper()
	orig := bytes.Clone(rec)
	var decodeErr error
	if shape.x.Decode != nil {
		_, decodeErr = shape.x.Decode.Decode(orig)
	}
	for _, emitErr := range []error{nil, errors.New("emit")} {
		frame := runStage(tb, shape.x, rec, emitErr)
		elem := runStage(tb, elementPath(shape.x), rec, emitErr)
		if !slices.EqualFunc(frame.out, elem.out, bytes.Equal) {
			tb.Errorf("%s(%x): frame path emitted %x, element path %x", shape.name, orig, frame.out, elem.out)
		}
		if !slices.Equal(frame.charges, elem.charges) {
			tb.Errorf("%s(%x): frame path charged %v, element path %v", shape.name, orig, frame.charges, elem.charges)
		}
		if (frame.err == nil) != (elem.err == nil) ||
			frame.err != nil && frame.err.Error() != elem.err.Error() {
			tb.Errorf("%s(%x): frame path err %v, element path %v", shape.name, orig, frame.err, elem.err)
		}
		want := decodeErr
		if want == nil {
			want = emitErr
		}
		if !errors.Is(frame.err, want) || !errors.Is(elem.err, want) {
			tb.Errorf("%s(%x): errors %v / %v, want both to wrap %v", shape.name, orig, frame.err, elem.err, want)
		}
	}
	if !bytes.Equal(rec, orig) {
		tb.Errorf("%s: stage wrote into its input: %x, was %x", shape.name, rec, orig)
	}
}

// TestFrameRewriteParity: a stage that runs on frames is
// indistinguishable from the same stage on elements — canonical frames,
// frames with non-minimal lengths or bytes after the last field, and
// every truncation of them.
func TestFrameRewriteParity(t *testing.T) {
	for _, shape := range frameShapes(t) {
		t.Run(shape.name, func(t *testing.T) {
			inputs := slices.Clone(shape.valid)
			for _, v := range shape.valid {
				inputs = append(inputs, append(bytes.Clone(v), "trailing"...))
			}
			switch shape.name {
			case "WithoutMetadata":
				inputs = append(inputs,
					recordFrame("t", []byte("k"), []byte("v"), true),
					recordFrame("", nil, nil, true),
					append(recordFrame("t", []byte("k"), []byte("v"), true), 0))
			case "Values":
				inputs = append(inputs,
					kvFrame([]byte("k"), []byte("v"), true),
					append(kvFrame(nil, nil, true), 9))
			}
			for _, in := range slices.Clone(inputs) {
				for n := range len(in) {
					inputs = append(inputs, in[:n])
				}
			}
			for _, in := range inputs {
				checkParity(t, shape, in)
			}
		})
	}
}

// TestFrameRewriteDeclinesOtherCoders: a rewrite is offered only for the
// coder pair its contract holds for, so any other pair keeps the
// element path.
func TestFrameRewriteDeclinesOtherCoders(t *testing.T) {
	withoutMetadata, values := frameFns(t)
	bytesCoder := beam.BytesCoder{}
	recCoder := beam.KafkaRecordCoder{}
	kvCoder := beam.KVCoder{Key: bytesCoder, Value: bytesCoder}
	stringKV := beam.KVCoder{Key: beam.StringUTF8Coder{}, Value: bytesCoder}
	cases := []struct {
		fn      beam.DoFn
		in, out beam.Coder
		want    bool
	}{
		{withoutMetadata, recCoder, kvCoder, true},
		{withoutMetadata, recCoder, stringKV, false},
		{withoutMetadata, bytesCoder, kvCoder, false},
		{values, kvCoder, bytesCoder, true},
		{values, stringKV, bytesCoder, false},
		{values, kvCoder, beam.StringUTF8Coder{}, false},
	}
	for _, tc := range cases {
		_, ok := tc.fn.(beam.FrameFn).FrameRewrite(tc.in, tc.out)
		if ok != tc.want {
			t.Errorf("%T.FrameRewrite(%s, %s) ok = %v, want %v", tc.fn, tc.in.Name(), tc.out.Name(), ok, tc.want)
		}
	}
}

// FuzzFrameRewrite holds the frame path to the element path on
// arbitrary input: shape picks the stage, frame is its record.
func FuzzFrameRewrite(f *testing.F) {
	shapes := frameShapes(f)
	for i, shape := range shapes {
		for _, v := range shape.valid {
			f.Add(uint8(i), v)
		}
	}
	f.Fuzz(func(t *testing.T, shape uint8, frame []byte) {
		checkParity(t, shapes[int(shape)%len(shapes)], frame)
	})
}
