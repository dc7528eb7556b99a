package graphx

import (
	"errors"
	"fmt"
	"time"

	"beambench/internal/beam"
	"beambench/internal/simcost"
)

// ErrSinkElement is the cause of a stage failing at the sink exit:
// KafkaIO.Write takes []byte elements and nothing else.
var ErrSinkElement = errors.New("KafkaWrite element is not []byte")

// Executable is the one stateless Beam stage body every engine runner
// deploys: entry, then the DoFn, then exit per emission. A read
// expansion, a ParDo, a write serializer and a forwarding operator, on
// any engine, differ in entry and exit and nothing else; a runner owns
// where the stage sits in its engine's graph, not what it does to a
// record.
//
// Entry: Decode, when set, decodes the record with the upstream boundary
// coder (Costs.CoderPerRecord); otherwise a non-empty Wrap makes the raw
// broker payload a KafkaRecord of that topic (free, no coder boundary
// yet); with neither the record itself is the element. Every record
// then pays Costs.BeamDoFnPerRecord for the dispatch. Exit, per
// emission: Encode, when set, encodes the element for the next boundary
// (Costs.CoderPerRecord); otherwise the element must be the []byte
// payload for the Kafka sink and is handed on as the record, for
// SinkCharge — what the runner's sink path costs: nothing on Flink and
// Spark, whose sinks batch, the coder plus the synchronous send on Apex.
//
// A decode, DoFn, encode or sink-element failure fails the stage: the
// error names the stage and wraps the cause, and the engine fails the
// job with it. Nothing is dropped.
type Executable struct {
	Name string    // in errors
	Fn   beam.DoFn // one DoFn or a fused chain (Stage.Fn); nil forwards the element

	Wrap       string
	Decode     beam.Coder
	Encode     beam.Coder
	SinkCharge time.Duration
	Costs      simcost.Costs
}

// Bind builds the stage for one engine instance (a Flink subtask, a
// Spark task, an Apex partition): it runs the DoFn's Setup hook and
// composes the emitter chain once, against the instance's charge. The
// returned function has the shape of watermark.Operator.Process; emit
// is only valid during the call it is passed to.
func (x Executable) Bind(charge func(time.Duration)) (func(rec []byte, emit func([]byte) error) error, error) {
	if s, ok := x.Fn.(beam.Setupper); ok {
		if err := s.Setup(); err != nil {
			return nil, stageErr(x.Name, fmt.Errorf("setup: %w", err))
		}
	}
	if x.Fn == nil && x.Decode == nil && x.Wrap == "" && x.Encode == nil {
		// Forwarding: the record is the element is the payload. Same
		// charges as below, without boxing the record into an element.
		return func(rec []byte, emit func([]byte) error) error {
			charge(x.Costs.BeamDoFnPerRecord)
			if x.SinkCharge > 0 {
				charge(x.SinkCharge)
			}
			return emit(rec)
		}, nil
	}

	// out is the running call's emit, parked for exit.
	var out func([]byte) error
	exit := func(v any) error {
		if x.Encode != nil {
			wire, err := x.Encode.Encode(v)
			if err != nil {
				return fmt.Errorf("encode: %w", err)
			}
			charge(x.Costs.CoderPerRecord)
			return out(wire)
		}
		payload, ok := v.([]byte)
		if !ok {
			return fmt.Errorf("%w (%T)", ErrSinkElement, v)
		}
		if x.SinkCharge > 0 {
			charge(x.SinkCharge)
		}
		return out(payload)
	}
	bctx := beam.Context{Window: beam.GlobalWindow{}}

	return func(rec []byte, emit func([]byte) error) error {
		var elem any
		switch {
		case x.Decode != nil:
			decoded, err := x.Decode.Decode(rec)
			if err != nil {
				return stageErr(x.Name, fmt.Errorf("decode: %w", err))
			}
			charge(x.Costs.CoderPerRecord)
			elem = decoded
		case x.Wrap != "":
			elem = beam.KafkaRecord{Topic: x.Wrap, Value: rec}
		default:
			elem = rec
		}
		charge(x.Costs.BeamDoFnPerRecord)
		out = emit
		var err error
		if x.Fn != nil {
			err = x.Fn.ProcessElement(bctx, elem, exit)
		} else {
			err = exit(elem)
		}
		if err != nil {
			return stageErr(x.Name, err)
		}
		return nil
	}, nil
}

// stageErr names the failing stage, once, in front of the cause.
func stageErr(name string, err error) error {
	return fmt.Errorf("beam: stage %q: %w", name, err)
}
