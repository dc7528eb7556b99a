package beam

import (
	"fmt"
	"time"
)

// KV is a key-value element, the input type of GroupByKey.
type KV struct {
	Key   any
	Value any
}

// Grouped is the output element type of GroupByKey: a key with all
// values collected for it within one window.
type Grouped struct {
	Key    any
	Values []any
	// Window is the pane's window, carried with the element so
	// downstream transforms can read window bounds even on engine
	// runners, where coder boundaries erase the flow context. Nil means
	// the global window.
	Window Window
}

// Context carries per-element runtime information into a DoFn.
type Context struct {
	// Timestamp is the element's event timestamp.
	Timestamp time.Time
	// Window is the element's window.
	Window Window
}

// Emitter receives elements produced by a DoFn. It reports an error when
// the runner is shutting down; DoFns must stop and return it.
type Emitter func(elem any) error

// DoFn is element-by-element processing logic, the user-facing unit of a
// ParDo (Section II-A of the paper).
type DoFn interface {
	// ProcessElement handles one element, emitting zero or more.
	ProcessElement(ctx Context, elem any, emit Emitter) error
}

// Lifecycle hooks a DoFn may additionally implement; runners call them
// around bundles, mirroring the Beam model.
type (
	// Setupper is called once per DoFn instance before processing.
	Setupper interface{ Setup() error }
	// Teardowner is called once per DoFn instance after processing.
	Teardowner interface{ Teardown() error }
)

// FrameFn is implemented by a DoFn that only reshapes a coded frame:
// it emits exactly one element per element, and that element's frame
// can be cut from the input frame (or written straight from its fields)
// without building either element. graphx.Executable.Bind asks once per
// stage instance and, when the rewrite applies, runs it in place of
// decode, ProcessElement and encode.
type FrameFn interface {
	DoFn
	// FrameRewrite returns, for elements decoded with in and encoded
	// with out, a rewrite that maps a frame to out.Encode(e) byte for
	// byte, e being the one element ProcessElement emits for
	// in.Decode(frame), and that fails with the error in.Decode
	// returns. ok is false for any other pair of coders. The result may
	// alias the frame; the rewrite never writes into it.
	FrameRewrite(in, out Coder) (rewrite func(frame []byte) ([]byte, error), ok bool)
}

// DoFnFunc adapts a function to DoFn.
type DoFnFunc func(ctx Context, elem any, emit Emitter) error

// ProcessElement calls the function.
func (f DoFnFunc) ProcessElement(ctx Context, elem any, emit Emitter) error {
	return f(ctx, elem, emit)
}

// MapElements applies fn to every element.
func MapElements(p *Pipeline, name string, fn func(any) (any, error), in PCollection, opts ...Option) PCollection {
	if fn == nil {
		p.fail(fmt.Errorf("beam: MapElements %q: nil function", name))
		return in
	}
	return ParDo(p, name, DoFnFunc(func(ctx Context, elem any, emit Emitter) error {
		out, err := fn(elem)
		if err != nil {
			return err
		}
		return emit(out)
	}), in, opts...)
}

// Filter keeps elements matching pred.
func Filter(p *Pipeline, name string, pred func(any) (bool, error), in PCollection, opts ...Option) PCollection {
	if pred == nil {
		p.fail(fmt.Errorf("beam: Filter %q: nil predicate", name))
		return in
	}
	return ParDo(p, name, DoFnFunc(func(ctx Context, elem any, emit Emitter) error {
		ok, err := pred(elem)
		if err != nil {
			return err
		}
		if ok {
			return emit(elem)
		}
		return nil
	}), in, opts...)
}

// WithKeys converts a collection into KV pairs using fn for the key.
func WithKeys(p *Pipeline, name string, fn func(any) (any, error), in PCollection) PCollection {
	if fn == nil {
		p.fail(fmt.Errorf("beam: WithKeys %q: nil function", name))
		return in
	}
	return ParDo(p, name, DoFnFunc(func(ctx Context, elem any, emit Emitter) error {
		key, err := fn(elem)
		if err != nil {
			return err
		}
		return emit(KV{Key: key, Value: elem})
	}), in, WithCoder(KVCoder{Key: inferScalarCoder(), Value: in.Coder()}))
}

// Values drops the keys of a KV collection, the Values.create() step the
// paper identifies in the Beam execution plan (Figure 13).
func Values(p *Pipeline, in PCollection) PCollection {
	valueCoder := Coder(BytesCoder{})
	if kvc, ok := in.Coder().(KVCoder); ok {
		valueCoder = kvc.Value
	}
	return ParDo(p, "Values", valuesFn{}, in, WithCoder(valueCoder))
}

// valuesFn is the DoFn of Values.
type valuesFn struct{}

// ProcessElement implements DoFn.
func (valuesFn) ProcessElement(ctx Context, elem any, emit Emitter) error {
	kv, ok := elem.(KV)
	if !ok {
		return fmt.Errorf("beam: Values: element %T is not a KV", elem)
	}
	return emit(kv.Value)
}

// FrameRewrite implements FrameFn for KV<bytes,bytes> in and bytes out:
// the output frame is the input's value sub-frame.
func (valuesFn) FrameRewrite(in, out Coder) (func([]byte) ([]byte, error), bool) {
	if in != Coder(bytesKVCoder) || out != Coder(BytesCoder{}) {
		return nil, false
	}
	return func(frame []byte) ([]byte, error) {
		_, val, err := splitKV(frame)
		return val, err
	}, true
}

// Keys drops the values of a KV collection.
func Keys(p *Pipeline, in PCollection) PCollection {
	keyCoder := Coder(BytesCoder{})
	if kvc, ok := in.Coder().(KVCoder); ok {
		keyCoder = kvc.Key
	}
	return ParDo(p, "Keys", DoFnFunc(func(ctx Context, elem any, emit Emitter) error {
		kv, ok := elem.(KV)
		if !ok {
			return fmt.Errorf("beam: Keys: element %T is not a KV", elem)
		}
		return emit(kv.Key)
	}), in, WithCoder(keyCoder))
}

// KeyString canonicalizes a GroupByKey key for state lookup. Runners
// use it to agree on grouping semantics across engines.
func KeyString(key any) (string, error) {
	switch k := key.(type) {
	case string:
		return k, nil
	case []byte:
		return string(k), nil
	case int:
		return fmt.Sprintf("i%d", k), nil
	case int64:
		return fmt.Sprintf("i%d", k), nil
	default:
		return "", fmt.Errorf("beam: unsupported GroupByKey key type %T", key)
	}
}

func inferScalarCoder() Coder { return StringUTF8Coder{} }

// inferCoder guesses a coder from sample values; Create uses it when no
// explicit coder is given.
func inferCoder(values []any) Coder {
	for _, v := range values {
		switch v.(type) {
		case []byte:
			return BytesCoder{}
		case string:
			return StringUTF8Coder{}
		case int, int64:
			return VarIntCoder{}
		case KV:
			return KVCoder{Key: StringUTF8Coder{}, Value: StringUTF8Coder{}}
		}
	}
	return BytesCoder{}
}
