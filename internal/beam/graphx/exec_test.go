package graphx_test

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"beambench/internal/beam"
	"beambench/internal/beam/graphx"
	"beambench/internal/simcost"
)

// primeCosts gives every charge the executable could reach for a
// distinct prime, so a recorded charge names its field.
var primeCosts = simcost.Costs{
	CoderPerRecord:         2,
	BeamDoFnPerRecord:      3,
	ProducerSyncSend:       5,
	NetworkHopPerRecord:    7,
	BufferServerPerRecord:  11,
	BrokerProducePerRecord: 13,
}

const (
	coder = time.Duration(2)
	dofn  = time.Duration(3)
	sink  = time.Duration(2 + 5) // what the Apex runner supplies
)

// twice emits every element two times: per-emission charges show twice
// per record, per-record charges once.
var twice = beam.DoFnFunc(func(_ beam.Context, elem any, emit beam.Emitter) error {
	if err := emit(elem); err != nil {
		return err
	}
	return emit(elem)
})

func mustEncode(t *testing.T, c beam.Coder, v any) []byte {
	t.Helper()
	b, err := c.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestExecutableChargesPerShape pins the executable's side of the cost
// model: for each (entry, exit) shape a runner deploys, the exact
// sequence of charges one record causes and the records it emits.
func TestExecutableChargesPerShape(t *testing.T) {
	bytesCoder := beam.BytesCoder{}
	recCoder := beam.KafkaRecordCoder{}
	kvCoder := beam.KVCoder{Key: bytesCoder, Value: bytesCoder}
	withoutMetadata, values := frameFns(t)
	payload := []byte("payload")
	kv := mustEncode(t, kvCoder, beam.KV{Key: []byte("key"), Value: payload})
	cases := []struct {
		name    string
		x       graphx.Executable
		in      []byte
		charges []time.Duration
		out     [][]byte
	}{
		{
			name:    "wrap→encode (Flink/Spark read expansion)",
			x:       graphx.Executable{Wrap: "in", Encode: recCoder},
			in:      payload,
			charges: []time.Duration{dofn, coder},
			out:     [][]byte{mustEncode(t, recCoder, beam.KafkaRecord{Topic: "in", Value: payload})},
		},
		{
			name:    "decode→fn→encode (ParDo, two emissions)",
			x:       graphx.Executable{Fn: twice, Decode: bytesCoder, Encode: bytesCoder},
			in:      mustEncode(t, bytesCoder, payload),
			charges: []time.Duration{coder, dofn, coder, coder},
			out:     [][]byte{mustEncode(t, bytesCoder, payload), mustEncode(t, bytesCoder, payload)},
		},
		{
			name:    "decode→WithoutMetadata→encode (frame: the record's key/value tail)",
			x:       graphx.Executable{Fn: withoutMetadata, Decode: recCoder, Encode: kvCoder},
			in:      mustEncode(t, recCoder, beam.KafkaRecord{Topic: "in", Key: []byte("key"), Value: payload}),
			charges: []time.Duration{coder, dofn, coder},
			out:     [][]byte{kv},
		},
		{
			name:    "decode→Values→encode (frame: the value sub-frame)",
			x:       graphx.Executable{Fn: values, Decode: kvCoder, Encode: bytesCoder},
			in:      kv,
			charges: []time.Duration{coder, dofn, coder},
			out:     [][]byte{payload},
		},
		{
			name:    "decode→payload (Flink/Spark write serializer)",
			x:       graphx.Executable{Decode: bytesCoder},
			in:      mustEncode(t, bytesCoder, payload),
			charges: []time.Duration{coder, dofn},
			out:     [][]byte{payload},
		},
		{
			name:    "wrap→fn→payload+sink charge (Apex stage into the sink)",
			x:       graphx.Executable{Fn: beam.DoFnFunc(valueTwice), Wrap: "in", SinkCharge: sink},
			in:      payload,
			charges: []time.Duration{dofn, sink, sink},
			out:     [][]byte{payload, payload},
		},
		{
			name:    "decode→payload+sink charge (Apex Create into the sink)",
			x:       graphx.Executable{Decode: bytesCoder, SinkCharge: sink},
			in:      mustEncode(t, bytesCoder, payload),
			charges: []time.Duration{coder, dofn, sink},
			out:     [][]byte{payload},
		},
		{
			name:    "forward (global WindowInto; Flatten on Apex)",
			x:       graphx.Executable{},
			in:      payload,
			charges: []time.Duration{dofn},
			out:     [][]byte{payload},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.x.Name, tc.x.Costs = "stage", primeCosts
			var charges []time.Duration
			process, err := tc.x.Bind(func(d time.Duration) { charges = append(charges, d) })
			if err != nil {
				t.Fatal(err)
			}
			var out [][]byte
			emit := func(rec []byte) error {
				out = append(out, rec)
				return nil
			}
			// Two records: the second must repeat the first exactly, i.e.
			// nothing is charged per instance or carried over.
			for range 2 {
				charges, out = nil, nil
				if err := process(tc.in, emit); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(charges, tc.charges) {
					t.Errorf("charges = %v, want %v", charges, tc.charges)
				}
				if !slices.EqualFunc(out, tc.out, slices.Equal[[]byte]) {
					t.Errorf("emitted %q, want %q", out, tc.out)
				}
			}
		})
	}
}

// valueTwice unwraps a KafkaRecord to its payload and emits it twice.
func valueTwice(_ beam.Context, elem any, emit beam.Emitter) error {
	return twice.ProcessElement(beam.Context{}, elem.(beam.KafkaRecord).Value, emit)
}

// failCoder fails in the direction under test.
type failCoder struct {
	beam.BytesCoder
	enc, dec error
}

func (c failCoder) Encode(v any) ([]byte, error) {
	if c.enc != nil {
		return nil, c.enc
	}
	return c.BytesCoder.Encode(v)
}

func (c failCoder) Decode(b []byte) (any, error) {
	if c.dec != nil {
		return nil, c.dec
	}
	return c.BytesCoder.Decode(b)
}

type setupFn struct {
	beam.DoFnFunc
	err error
}

func (f setupFn) Setup() error { return f.err }

// TestExecutableErrorPolicy: whatever fails inside a stage fails the
// stage, with an error that names the stage once and wraps the cause.
func TestExecutableErrorPolicy(t *testing.T) {
	cause := errors.New("cause")
	failing := beam.DoFnFunc(func(beam.Context, any, beam.Emitter) error { return cause })
	rec := mustEncode(t, beam.BytesCoder{}, []byte("x"))
	cases := []struct {
		name string
		x    graphx.Executable
		in   []byte
		want error
	}{
		{"decode", graphx.Executable{Decode: failCoder{dec: cause}, Encode: beam.BytesCoder{}}, rec, cause},
		{"DoFn", graphx.Executable{Fn: failing, Decode: beam.BytesCoder{}, Encode: beam.BytesCoder{}}, rec, cause},
		{"encode", graphx.Executable{Decode: beam.BytesCoder{}, Encode: failCoder{enc: cause}}, rec, cause},
		{"sink element", graphx.Executable{Wrap: "in"}, []byte("x"), graphx.ErrSinkElement},
		{"downstream emit", graphx.Executable{}, rec, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.x.Name = "the-stage"
			process, err := tc.x.Bind(func(time.Duration) {})
			if err != nil {
				t.Fatal(err)
			}
			emitErr := errors.New("emit")
			err = process(tc.in, func([]byte) error { return emitErr })
			if tc.want == nil {
				// The forwarding stage has nothing of its own to fail: it
				// hands back what the engine's emit returned.
				if !errors.Is(err, emitErr) {
					t.Fatalf("err = %v, want the emit error", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want it to wrap %v", err, tc.want)
			}
			if n := strings.Count(err.Error(), `stage "the-stage"`); n != 1 {
				t.Errorf("err = %q names the stage %d times, want once", err, n)
			}
		})
	}

	t.Run("setup", func(t *testing.T) {
		x := graphx.Executable{Name: "the-stage", Fn: setupFn{DoFnFunc: failing, err: cause}}
		if _, err := x.Bind(func(time.Duration) {}); !errors.Is(err, cause) || !strings.Contains(err.Error(), `stage "the-stage"`) {
			t.Fatalf("Bind = %v, want the Setup failure under the stage's name", err)
		}
	})
}

// TestExecutableRecordPathAllocations: the chain is composed at Bind,
// so a record costs what its coders and elements cost and nothing for
// the executable itself; a stage that runs on frames costs the frame it
// writes, if any.
func TestExecutableRecordPathAllocations(t *testing.T) {
	bytesCoder := beam.BytesCoder{}
	recCoder := beam.KafkaRecordCoder{}
	kvCoder := beam.KVCoder{Key: bytesCoder, Value: bytesCoder}
	withoutMetadata, values := frameFns(t)
	p, _ := chainPipeline(t)
	pl, err := graphx.Lower(p, graphx.Options{Fusion: true})
	if err != nil {
		t.Fatal(err)
	}
	fused := pl.Stages[1].Fn()
	if fused.(*graphx.FusedFn).Len() != 3 {
		t.Fatalf("chain stage %v is not three fused fns", stageNames(pl))
	}

	payload := []byte("payload")
	kv := mustEncode(t, kvCoder, beam.KV{Key: []byte("key"), Value: payload})
	cases := []struct {
		name   string
		x      graphx.Executable
		in     []byte
		allocs float64
	}{
		{"forward", graphx.Executable{}, payload, 0},
		{"WithoutMetadata", graphx.Executable{Fn: withoutMetadata, Decode: recCoder, Encode: kvCoder},
			mustEncode(t, recCoder, beam.KafkaRecord{Topic: "in", Key: []byte("key"), Value: payload}), 0},
		{"Values", graphx.Executable{Fn: values, Decode: kvCoder, Encode: bytesCoder}, kv, 0},
		{"bytes write serializer", graphx.Executable{Decode: bytesCoder}, payload, 0},
		// The record's frame, written once.
		{"read expansion", graphx.Executable{Wrap: "in", Encode: recCoder}, payload, 1},
		// Boxing the decoded []byte; the emitters were composed at Bind.
		{"ParDo", graphx.Executable{Fn: ident("id"), Decode: bytesCoder, Encode: bytesCoder}, payload, 1},
		{"three-fn fused chain", graphx.Executable{Fn: fused, Decode: bytesCoder, Encode: bytesCoder}, payload, 1},
	}
	emit := func([]byte) error { return nil }
	for _, tc := range cases {
		tc.x.Name = tc.name
		process, err := tc.x.Bind(func(time.Duration) {})
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() { _ = process(tc.in, emit) }); n != tc.allocs {
			t.Errorf("%s stage allocates %v per record, want %v", tc.name, n, tc.allocs)
		}
	}
}
