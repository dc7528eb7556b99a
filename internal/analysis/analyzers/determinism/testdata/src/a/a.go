// Package a is a determinism-analyzer fixture: each flagged line
// carries a want expectation; the clean shapes document what passes.
package a

import (
	"math/rand"
	randv2 "math/rand/v2"
	"sort"
	"time"
)

func clock() {
	_ = time.Now() // want `time.Now in output-producing package`
	//beamvet:allow determinism duration telemetry only
	_ = time.Now() // suppressed by the directive above

	_ = time.Now() //beamvet:allow determinism trailing directive on the same line
}

func clockWaits(d time.Duration) {
	_ = time.NewTicker(d)      // want `time.NewTicker in output-producing package a waits on the host clock`
	_ = time.NewTimer(d)       // want `time.NewTimer in output-producing package a waits on the host clock`
	_ = time.Tick(d)           // want `time.Tick in output-producing package a waits on the host clock`
	<-time.After(d)            // want `time.After in output-producing package a waits on the host clock`
	_ = time.AfterFunc(d, nop) // want `time.AfterFunc in output-producing package a waits on the host clock`
	time.Sleep(d)              // want `time.Sleep in output-producing package a waits on the host clock`
	//beamvet:allow determinism telemetry sampling, not record output
	_ = time.NewTicker(d)
	var t *time.Timer
	_ = t.Reset(d) // a method on an existing timer: the call that made it was judged
}

func nop() {}

func globalRand() {
	_ = rand.Intn(7)                         // want `rand.Intn draws from the global rand source`
	_ = randv2.IntN(7)                       // want `rand.IntN draws from the global rand source`
	rand.Shuffle(1, swap)                    // want `rand.Shuffle draws from the global rand source`
	_ = rand.New(rand.NewSource(42)).Intn(7) // seeded: methods on *rand.Rand pass
	_ = randv2.New(randv2.NewPCG(1, 2)).IntN(7)
}

func swap(i, j int) {}

func emitInMapOrder(m map[string]int, emit func(string)) {
	for k := range m {
		emit(k) // want `emit is called per map entry inside range-over-map`
	}
}

func appendInMapOrder(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `out is appended inside range-over-map and never sorted`
	}
	return out
}

func appendThenSort(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // sorted below: deterministic
	}
	sort.Strings(out)
	return out
}

type sink struct {
	rows []string
}

func appendToField(m map[string]int, s *sink) {
	for k := range m {
		s.rows = append(s.rows, k) // want `rows is appended inside range-over-map and never sorted`
	}
}

func appendToFieldThenSort(m map[string]int, s *sink) {
	for k := range m {
		s.rows = append(s.rows, k)
	}
	sort.Strings(s.rows)
}

// indexedStore writes each entry to a position derived from stored
// state, not from iteration order — deterministic, passes.
func indexedStore(m map[string]int) []string {
	out := make([]string, len(m))
	for k, i := range m {
		out[i] = k
	}
	return out
}

// sliceRange is not a map range; appending without a sort is fine.
func sliceRange(in []string, emit func(string)) {
	var out []string
	for _, v := range in {
		out = append(out, v)
		emit(v)
	}
}

// localAccumulator appends to a slice born inside the loop body; the
// per-entry slice never carries iteration order across entries.
func localAccumulator(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var tmp []int
		tmp = append(tmp, vs...)
		n += len(tmp)
	}
	return n
}

func allowedEmit(m map[string]int, emit func(string)) {
	for k := range m {
		//beamvet:allow determinism downstream re-sorts per pane before output
		emit(k)
	}
}
