package apexrunner

import (
	"testing"
	"time"

	"beambench/internal/beam"
	"beambench/internal/beam/graphx"
)

type partition struct{}

func (partition) PartitionIndex() int  { return 0 }
func (partition) PartitionCount() int  { return 1 }
func (partition) InputPartitions() int { return 1 }
func (partition) Charge(time.Duration) {}

// TestStageAdapterAddsNoAllocation pins the Apex adapter's cost on the
// record path: the operator's Process is the shared executable bound to
// the partition's charge, so a tuple costs what the executable costs
// called directly — for a forwarding stage, nothing.
func TestStageAdapterAddsNoAllocation(t *testing.T) {
	wire, err := beam.BytesCoder{}.Encode([]byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	identity := beam.DoFnFunc(func(_ beam.Context, v any, emit beam.Emitter) error { return emit(v) })
	emitted := 0
	emit := func([]byte) error { emitted++; return nil }
	for name, x := range map[string]graphx.Executable{
		"forward": {Name: "fwd"},
		"ParDo":   {Name: "pardo", Fn: identity, Decode: beam.BytesCoder{}, Encode: beam.BytesCoder{}},
		"sink":    {Name: "sink", Decode: beam.BytesCoder{}, SinkCharge: time.Microsecond},
	} {
		direct, err := x.Bind(partition{}.Charge)
		if err != nil {
			t.Fatal(err)
		}
		want := testing.AllocsPerRun(200, func() { _ = direct(wire, emit) })

		op, err := stage(x)(partition{})
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(200, func() { _ = op.Process(wire, emit) })
		if got != want || emitted == 0 {
			t.Errorf("%s: %v allocs per tuple through the adapter, %v calling the executable directly (%d emitted)", name, got, want, emitted)
		}
		if name == "forward" && got != 0 {
			t.Errorf("forward stage allocates %v per tuple, want 0", got)
		}
	}
}
