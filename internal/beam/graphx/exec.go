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
//
// When the stage only reshapes a frame (see frameRewrite) the body
// never builds an element: it rewrites the frame and makes the element
// path's charges, in its order, on its success and failure paths.
func (x Executable) Bind(charge func(time.Duration)) (func(rec []byte, emit func([]byte) error) error, error) {
	if s, ok := x.Fn.(beam.Setupper); ok {
		if err := s.Setup(); err != nil {
			return nil, stageErr(x.Name, fmt.Errorf("setup: %w", err))
		}
	}
	if rewrite, ok := x.frameRewrite(); ok {
		return func(rec []byte, emit func([]byte) error) error {
			frame := rec
			if rewrite != nil {
				var err error
				if frame, err = rewrite(rec); err != nil {
					return stageErr(x.Name, fmt.Errorf("decode: %w", err))
				}
			}
			if x.Decode != nil {
				charge(x.Costs.CoderPerRecord)
			}
			charge(x.Costs.BeamDoFnPerRecord)
			if x.Encode != nil {
				charge(x.Costs.CoderPerRecord)
			} else if x.SinkCharge > 0 {
				charge(x.SinkCharge)
			}
			if err := emit(frame); err != nil {
				return stageErr(x.Name, err)
			}
			return nil
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
	var fns []beam.DoFn
	switch fn := x.Fn.(type) {
	case nil:
	case *FusedFn:
		fns = fn.fns
	default:
		fns = []beam.DoFn{fn}
	}
	process := compose(beam.Context{Window: beam.GlobalWindow{}}, fns, exit)

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
		if err := process(elem); err != nil {
			return stageErr(x.Name, err)
		}
		return nil
	}, nil
}

// frameRewrite reports whether the stage only reshapes a frame, and how:
// a nil rewrite hands the record on as it is. That holds for forwarding
// (the record is the element is the payload), for the write serializer
// over the bytes coder (the frame is the payload), for the read
// expansion into the KafkaRecord coder (the record's frame is written
// straight from the payload), and for a beam.FrameFn whose rewrite
// accepts the stage's coders. Every one of these can fail only where
// the element path's decode fails, before the first charge.
func (x Executable) frameRewrite() (func([]byte) ([]byte, error), bool) {
	switch fn := x.Fn.(type) {
	case nil:
		_, bytesIn := x.Decode.(beam.BytesCoder)
		_, recordOut := x.Encode.(beam.KafkaRecordCoder)
		switch {
		case x.Decode == nil && x.Wrap == "" && x.Encode == nil, bytesIn && x.Encode == nil:
			return nil, true
		case x.Decode == nil && x.Wrap != "" && recordOut:
			topic := x.Wrap
			return func(rec []byte) ([]byte, error) {
				return beam.KafkaRecordCoder{}.EncodeRecord(beam.KafkaRecord{Topic: topic, Value: rec}), nil
			}, true
		}
	case beam.FrameFn:
		if x.Decode != nil && x.Encode != nil {
			return fn.FrameRewrite(x.Decode, x.Encode)
		}
	}
	return nil, false
}

// stageErr names the failing stage, once, in front of the cause.
func stageErr(name string, err error) error {
	return fmt.Errorf("beam: stage %q: %w", name, err)
}
