package sparkrunner

import (
	"testing"
	"time"

	"beambench/internal/beam"
	"beambench/internal/beam/graphx"
	"beambench/internal/spark"
)

// TestStageAdapterAddsNoAllocation pins the Spark adapter's cost on the
// record path: the narrow stage's function is the shared executable
// itself, bound to the task's charge, so a record costs what the
// executable costs called directly — for a forwarding stage, nothing.
func TestStageAdapterAddsNoAllocation(t *testing.T) {
	wire, err := beam.BytesCoder{}.Encode([]byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	identity := beam.DoFnFunc(func(_ beam.Context, v any, emit beam.Emitter) error { return emit(v) })
	charge := func(time.Duration) {}
	emitted := 0
	emit := func([]byte) error { emitted++; return nil }
	for name, x := range map[string]graphx.Executable{
		"forward": {Name: "fwd"},
		"ParDo":   {Name: "pardo", Fn: identity, Decode: beam.BytesCoder{}, Encode: beam.BytesCoder{}},
	} {
		direct, err := x.Bind(charge)
		if err != nil {
			t.Fatal(err)
		}
		want := testing.AllocsPerRun(200, func() { _ = direct(wire, emit) })

		adapted, err := stage(x)(spark.TaskContext{Charge: charge})
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(200, func() { _ = adapted(wire, emit) })
		if got != want || emitted == 0 {
			t.Errorf("%s: %v allocs per record through the adapter, %v calling the executable directly (%d emitted)", name, got, want, emitted)
		}
		if name == "forward" && got != 0 {
			t.Errorf("forward stage allocates %v per record, want 0", got)
		}
	}
}
