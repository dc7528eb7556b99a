package watermark

import "fmt"

// AggKind selects the reduction a windowed aggregate applies to its
// pane accumulator — the generalization of the original count-only
// windowed operators.
type AggKind int

const (
	// AggCount counts the pane's records.
	AggCount AggKind = iota + 1
	// AggSum sums the extracted values.
	AggSum
	// AggMin takes the minimum extracted value.
	AggMin
	// AggMax takes the maximum extracted value.
	AggMax
	// AggAvg averages the extracted values (integer division, zero for
	// an empty pane) — deterministic across engines.
	AggAvg
)

// String names the kind for plan rendering and errors.
func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	default:
		return fmt.Sprintf("AggKind(%d)", int(k))
	}
}

// Valid reports whether k is a known aggregation kind.
func (k AggKind) Valid() bool { return k >= AggCount && k <= AggAvg }

// NumAcc is the shared numeric pane accumulator: it tracks enough state
// to answer any AggKind, so one accumulator type serves every windowed
// aggregate in every engine. The zero value is an empty accumulator.
type NumAcc struct {
	Count, Sum, Min, Max int64
}

// Add folds one extracted value into the accumulator.
func (a *NumAcc) Add(v int64) {
	if a.Count == 0 || v < a.Min {
		a.Min = v
	}
	if a.Count == 0 || v > a.Max {
		a.Max = v
	}
	a.Count++
	a.Sum += v
}

// Result reduces the accumulator under the given kind.
func (a NumAcc) Result(kind AggKind) int64 {
	switch kind {
	case AggCount:
		return a.Count
	case AggSum:
		return a.Sum
	case AggMin:
		return a.Min
	case AggMax:
		return a.Max
	case AggAvg:
		if a.Count == 0 {
			return 0
		}
		return a.Sum / a.Count
	default:
		return 0
	}
}
