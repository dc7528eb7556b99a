package flinkrunner

import (
	"testing"
	"time"

	"beambench/internal/beam"
	"beambench/internal/beam/graphx"
)

type subtask struct{}

func (subtask) SubtaskIndex() int    { return 0 }
func (subtask) Parallelism() int     { return 1 }
func (subtask) Charge(time.Duration) {}

type countingCollector struct{ n int }

func (c *countingCollector) Collect([]byte) error { c.n++; return nil }

// TestStageAdapterAddsNoAllocation pins the Flink adapter's cost on the
// record path: it binds the subtask's collector once, so a record costs
// what the shared executable costs called directly — for a forwarding
// stage, nothing.
func TestStageAdapterAddsNoAllocation(t *testing.T) {
	wire, err := beam.BytesCoder{}.Encode([]byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	identity := beam.DoFnFunc(func(_ beam.Context, v any, emit beam.Emitter) error { return emit(v) })
	for name, x := range map[string]graphx.Executable{
		"forward": {Name: "fwd"},
		"ParDo":   {Name: "pardo", Fn: identity, Decode: beam.BytesCoder{}, Encode: beam.BytesCoder{}},
	} {
		out := &countingCollector{}
		direct, err := x.Bind(subtask{}.Charge)
		if err != nil {
			t.Fatal(err)
		}
		collect := out.Collect
		want := testing.AllocsPerRun(200, func() { _ = direct(wire, collect) })

		adapted, err := stage(x)(subtask{})
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(200, func() { _ = adapted(wire, out) })
		if got != want || out.n == 0 {
			t.Errorf("%s: %v allocs per record through the adapter, %v calling the executable directly (%d emitted)", name, got, want, out.n)
		}
		if name == "forward" && got != 0 {
			t.Errorf("forward stage allocates %v per record, want 0", got)
		}
	}
}
