package runners_test

import (
	"context"
	"errors"
	"testing"

	"beambench/internal/beam"
	"beambench/internal/beam/graphx"
	"beambench/internal/broker"
)

// undecodable encodes like the bytes coder and cannot decode: whatever
// stage sits behind a collection coded with it is fed bytes its coder
// rejects.
type undecodable struct {
	beam.BytesCoder
	err error
}

func (c undecodable) Name() string               { return "undecodable" }
func (c undecodable) Decode([]byte) (any, error) { return nil, c.err }

// TestStageFailureFailsTheRunOnEveryEngine is the one error policy of
// the shared stage executable, seen from outside: a DoFn error, a
// record the boundary coder cannot decode and a non-[]byte element at
// KafkaIO.Write each fail the run on Flink, Spark and Apex with the
// cause in the chain. (Beam-on-Spark used to drop all three: the run
// returned nil over an empty output topic.)
func TestStageFailureFailsTheRunOnEveryEngine(t *testing.T) {
	cause := errors.New("cause")
	identity := func(v any) (any, error) { return v, nil }
	pipelines := []struct {
		name  string
		want  error
		build func(p *beam.Pipeline, vals beam.PCollection) beam.PCollection
	}{
		{"DoFn error", cause, func(p *beam.Pipeline, vals beam.PCollection) beam.PCollection {
			return beam.MapElements(p, "fail", func(any) (any, error) { return nil, cause }, vals)
		}},
		{"undecodable record", cause, func(p *beam.Pipeline, vals beam.PCollection) beam.PCollection {
			bad := beam.MapElements(p, "a", identity, vals, beam.WithCoder(undecodable{err: cause}))
			return beam.MapElements(p, "b", identity, bad, beam.WithCoder(beam.BytesCoder{}))
		}},
		{"non-[]byte at KafkaWrite", graphx.ErrSinkElement, func(p *beam.Pipeline, vals beam.PCollection) beam.PCollection {
			return beam.MapElements(p, "stringify", func(v any) (any, error) { return string(v.([]byte)), nil },
				vals, beam.WithCoder(beam.StringUTF8Coder{}))
		}},
	}
	for _, pl := range pipelines {
		for _, engine := range []string{"flink", "spark", "apex"} {
			t.Run(pl.name+"/"+engine, func(t *testing.T) {
				w := freshWorkload(t, 1)
				p := beam.NewPipeline()
				vals := beam.Values(p, beam.WithoutMetadata(p, beam.KafkaRead(p, w.Broker, w.InputTopic)))
				beam.KafkaWrite(p, w.Broker, w.OutputTopic, pl.build(p, vals), broker.ProducerConfig{})
				r, err := beam.GetRunner(engine)
				if err != nil {
					t.Fatal(err)
				}
				// Unfused, so that on Apex too a coder boundary separates
				// the ParDos and the second one has to decode.
				_, err = r.Run(context.Background(), p, beam.Options{Fusion: beam.FusionOff})
				if !errors.Is(err, pl.want) {
					t.Fatalf("Run = %v, want an error wrapping %v", err, pl.want)
				}
			})
		}
	}
}
