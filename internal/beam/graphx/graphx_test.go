package graphx_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"beambench/internal/beam"
	"beambench/internal/beam/graphx"
)

func ident(name string) beam.DoFn {
	return beam.DoFnFunc(func(ctx beam.Context, elem any, emit beam.Emitter) error {
		return emit(elem)
	})
}

// chainPipeline builds Create -> ParDo a -> ParDo b -> ParDo c.
func chainPipeline(t *testing.T) (*beam.Pipeline, beam.PCollection) {
	t.Helper()
	p := beam.NewPipeline()
	col := beam.Create(p, []any{"x", "y"})
	for _, name := range []string{"a", "b", "c"} {
		col = beam.ParDo(p, name, ident(name), col)
	}
	return p, col
}

func stageNames(pl *graphx.Plan) []string {
	out := make([]string, len(pl.Stages))
	for i, s := range pl.Stages {
		out[i] = s.Name()
	}
	return out
}

func TestUnfusedLoweringIsOneStagePerTransform(t *testing.T) {
	p, _ := chainPipeline(t)
	pl, err := graphx.Lower(p, graphx.Options{Fusion: false})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pl.OperatorCount(), 4; got != want {
		t.Fatalf("OperatorCount = %d, want %d (stages: %v)", got, want, stageNames(pl))
	}
	for _, s := range pl.Stages {
		if s.Fused() {
			t.Errorf("stage %q fused in unfused lowering", s.Name())
		}
	}
}

func TestFusionCollapsesParDoChain(t *testing.T) {
	p, _ := chainPipeline(t)
	pl, err := graphx.Lower(p, graphx.Options{Fusion: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pl.OperatorCount(), 2; got != want {
		t.Fatalf("OperatorCount = %d, want %d (stages: %v)", got, want, stageNames(pl))
	}
	fused := pl.Stages[1]
	if !fused.Fused() || fused.Name() != "a+b+c" {
		t.Fatalf("fused stage = %q (fused=%v), want a+b+c", fused.Name(), fused.Fused())
	}
	if fused.Kind() != beam.KindParDo {
		t.Errorf("fused stage kind = %v, want ParDo", fused.Kind())
	}
}

func TestFusionStopsAtGroupByKey(t *testing.T) {
	p := beam.NewPipeline()
	col := beam.Create(p, []any{"x"})
	keyed := beam.WithKeys(p, "key", func(v any) (any, error) { return "k", nil }, col)
	grouped := beam.GroupByKey(p, keyed)
	after := beam.ParDo(p, "after", ident("after"), grouped)
	_ = after
	pl, err := graphx.Lower(p, graphx.Options{Fusion: true})
	if err != nil {
		t.Fatal(err)
	}
	// Create | key | GBK | after: the GBK is a shuffle boundary, so the
	// ParDos on either side must not fuse across it.
	if got, want := pl.OperatorCount(), 4; got != want {
		t.Fatalf("OperatorCount = %d, want %d (stages: %v)", got, want, stageNames(pl))
	}
	for _, s := range pl.Stages {
		if s.Kind() == beam.KindGroupByKey && s.Fused() {
			t.Error("GroupByKey stage was fused")
		}
	}
}

func TestFusionStopsAtFlatten(t *testing.T) {
	p := beam.NewPipeline()
	left := beam.ParDo(p, "left", ident("left"), beam.Create(p, []any{"a"}))
	right := beam.ParDo(p, "right", ident("right"), beam.Create(p, []any{"b"}))
	merged := beam.Flatten(p, left, right)
	_ = beam.ParDo(p, "after", ident("after"), merged)
	pl, err := graphx.Lower(p, graphx.Options{Fusion: true})
	if err != nil {
		t.Fatal(err)
	}
	// Two creates, two side ParDos, the Flatten, and the downstream
	// ParDo: nothing fuses through the merge.
	if got, want := pl.OperatorCount(), 6; got != want {
		t.Fatalf("OperatorCount = %d, want %d (stages: %v)", got, want, stageNames(pl))
	}
	for _, s := range pl.Stages {
		if s.Fused() {
			t.Errorf("stage %q fused across a Flatten boundary", s.Name())
		}
	}
}

func TestFusionStopsAtWindowInto(t *testing.T) {
	p := beam.NewPipeline()
	col := beam.ParDo(p, "pre", ident("pre"), beam.Create(p, []any{"a"}))
	windowed := beam.WindowInto(p, beam.WindowingStrategy{Fn: beam.FixedWindows{Size: time.Second}}, col)
	_ = beam.ParDo(p, "post", ident("post"), windowed)
	pl, err := graphx.Lower(p, graphx.Options{Fusion: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pl.OperatorCount(), 4; got != want {
		t.Fatalf("OperatorCount = %d, want %d (stages: %v)", got, want, stageNames(pl))
	}
}

func TestFusionStopsAtMultiConsumerCollection(t *testing.T) {
	p := beam.NewPipeline()
	shared := beam.ParDo(p, "shared", ident("shared"), beam.Create(p, []any{"a"}))
	// Two consumers read `shared`; fusing it into either branch would
	// starve the other.
	b1 := beam.ParDo(p, "branch1", ident("branch1"), shared)
	b2 := beam.ParDo(p, "branch2", ident("branch2"), shared)
	_ = beam.Flatten(p, b1, b2)
	pl, err := graphx.Lower(p, graphx.Options{Fusion: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range pl.Stages {
		if s.Fused() {
			t.Fatalf("stage %q fused despite multi-consumer input (stages: %v)", s.Name(), stageNames(pl))
		}
	}
	if got, want := pl.OperatorCount(), 5; got != want {
		t.Fatalf("OperatorCount = %d, want %d (stages: %v)", got, want, stageNames(pl))
	}
}

func TestFusedFnRunsChainInMemory(t *testing.T) {
	p := beam.NewPipeline()
	col := beam.Create(p, []any{1, 2, 3})
	doubled := beam.MapElements(p, "double", func(v any) (any, error) { return v.(int) * 2, nil }, col)
	_ = beam.Filter(p, "keepBig", func(v any) (bool, error) { return v.(int) > 2, nil }, doubled)
	pl, err := graphx.Lower(p, graphx.Options{Fusion: true})
	if err != nil {
		t.Fatal(err)
	}
	if pl.OperatorCount() != 2 {
		t.Fatalf("OperatorCount = %d, want 2 (stages: %v)", pl.OperatorCount(), stageNames(pl))
	}
	fn := pl.Stages[1].Fn()
	var got []int
	for _, v := range []int{1, 2, 3} {
		err := fn.ProcessElement(beam.Context{}, v, func(out any) error {
			got = append(got, out.(int))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 2 || got[0] != 4 || got[1] != 6 {
		t.Fatalf("fused chain emitted %v, want [4 6]", got)
	}
}

// hookFn records its lifecycle events into a shared log.
type hookFn struct {
	name     string
	log      *[]string
	setupErr error
}

func (h *hookFn) ProcessElement(ctx beam.Context, elem any, emit beam.Emitter) error {
	return emit(elem)
}
func (h *hookFn) Setup() error {
	*h.log = append(*h.log, "setup:"+h.name)
	return h.setupErr
}
func (h *hookFn) Teardown() error {
	*h.log = append(*h.log, "teardown:"+h.name)
	return nil
}

// fusedLifecycle builds a fused a+b chain from hook fns and returns its
// composed DoFn.
func fusedLifecycle(t *testing.T, a, b beam.DoFn) beam.DoFn {
	t.Helper()
	p := beam.NewPipeline()
	col := beam.Create(p, []any{"x"})
	col = beam.ParDo(p, "a", a, col)
	_ = beam.ParDo(p, "b", b, col)
	pl, err := graphx.Lower(p, graphx.Options{Fusion: true})
	if err != nil {
		t.Fatal(err)
	}
	if pl.OperatorCount() != 2 || !pl.Stages[1].Fused() {
		t.Fatalf("expected fused a+b stage, got %v", stageNames(pl))
	}
	return pl.Stages[1].Fn()
}

func TestFusedFnTeardownReversesSetupOrder(t *testing.T) {
	var log []string
	fn := fusedLifecycle(t, &hookFn{name: "a", log: &log}, &hookFn{name: "b", log: &log})
	setup := fn.(beam.Setupper)
	if err := setup.Setup(); err != nil {
		t.Fatal(err)
	}
	if err := fn.(beam.Teardowner).Teardown(); err != nil {
		t.Fatal(err)
	}
	want := []string{"setup:a", "setup:b", "teardown:b", "teardown:a"}
	if len(log) != len(want) {
		t.Fatalf("lifecycle log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("lifecycle log = %v, want %v", log, want)
		}
	}
}

func TestFusedFnSetupFailureUnwindsEarlierFns(t *testing.T) {
	var log []string
	boom := errors.New("boom")
	fn := fusedLifecycle(t,
		&hookFn{name: "a", log: &log},
		&hookFn{name: "b", log: &log, setupErr: boom})
	err := fn.(beam.Setupper).Setup()
	if !errors.Is(err, boom) {
		t.Fatalf("Setup error = %v, want %v", err, boom)
	}
	if !strings.Contains(err.Error(), `"b"`) {
		t.Errorf("Setup error %q does not name the failing DoFn", err)
	}
	// a was set up before b failed, so a must have been torn down.
	want := []string{"setup:a", "setup:b", "teardown:a"}
	if len(log) != len(want) {
		t.Fatalf("lifecycle log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("lifecycle log = %v, want %v", log, want)
		}
	}
}

func TestPlanGraphRendersFusedStage(t *testing.T) {
	p, _ := chainPipeline(t)
	pl, err := graphx.Lower(p, graphx.Options{Fusion: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := pl.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Fatalf("graph has %d nodes, want 2", g.Len())
	}
	var sb strings.Builder
	if err := g.RenderText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "a+b+c") {
		t.Errorf("rendered plan lacks fused stage label:\n%s", sb.String())
	}
}

// TestLowerRejectsWhatTranslationsRelyOn: the runners' switches assert
// instead of re-checking, so Lower has to turn every such defect away.
func TestLowerRejectsWhatTranslationsRelyOn(t *testing.T) {
	cases := map[string]struct {
		build       func() *beam.Pipeline
		unsupported bool
	}{
		"config of another kind's type": {build: func() *beam.Pipeline {
			p, _ := chainPipeline(t)
			p.Transforms()[0].Config = "not a []any"
			return p
		}},
		"input from another pipeline": {build: func() *beam.Pipeline {
			_, foreign := chainPipeline(t)
			p := beam.NewPipeline()
			beam.Create(p, []any{"x"})
			beam.ParDo(p, "stray", ident("stray"), foreign)
			return p
		}},
		"GroupByKey over a non-KV coder": {unsupported: true, build: func() *beam.Pipeline {
			p := beam.NewPipeline()
			beam.GroupByKey(p, beam.Create(p, []any{"x"}))
			return p
		}},
		"unknown kind": {unsupported: true, build: func() *beam.Pipeline {
			p, _ := chainPipeline(t)
			p.Transforms()[1].Kind = 99
			return p
		}},
	}
	for name, tc := range cases {
		_, err := graphx.Lower(tc.build(), graphx.Options{})
		if err == nil || errors.Is(err, beam.ErrUnsupported) != tc.unsupported {
			t.Errorf("%s: Lower = %v, want an error (capability gap: %v)", name, err, tc.unsupported)
		}
	}
}

func TestUnsupportedAddsTheRunnersSentinel(t *testing.T) {
	sentinel := fmt.Errorf("somerunner: %w", beam.ErrUnsupported)
	gap := fmt.Errorf("%w: some shape", beam.ErrUnsupported)
	if err := graphx.Unsupported(sentinel, gap); !errors.Is(err, sentinel) || !errors.Is(err, beam.ErrUnsupported) {
		t.Errorf("capability gap mapped to %v, want both sentinels in the chain", err)
	}
	other := errors.New("other")
	if err := graphx.Unsupported(sentinel, other); err != other {
		t.Errorf("other error mapped to %v, want it unchanged", err)
	}
}
