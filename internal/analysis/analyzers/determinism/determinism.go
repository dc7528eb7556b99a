// Package determinism flags nondeterminism in output-producing code.
// The benchmark's acceptance matrix asserts byte-identical output for
// every (system, API, parallelism, ingestion) cell, so any wall-clock
// read, global randomness, or map-iteration-ordered emission in the
// packages that compute or transport records is a cross-engine
// divergence waiting for the right seed. Three patterns are flagged:
//
//  1. time.Now — wall-clock reads. Event time must come from the
//     record's query-time column, never from the host clock. Waits on
//     the host clock — time.NewTicker, NewTimer, Tick, After, AfterFunc
//     and Sleep — are flagged with it: what happens after one depends
//     on real time, not on the records.
//  2. math/rand and math/rand/v2 package-level functions — draws from
//     the global, process-seeded source. Randomness must flow from an
//     explicit seed (rand.New(rand.NewPCG(seed, ...))) so runs repeat.
//  3. range over a map whose body emits (calls a function-valued
//     callback for its side effect) or appends to a slice declared
//     outside the loop that is never subsequently sorted — Go map
//     iteration order is deliberately randomized, so either pattern
//     leaks that order into output.
//
// Legitimate uses (telemetry timestamps, duration measurement,
// sampling tickers) are annotated //beamvet:allow determinism <reason>.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"beambench/internal/analysis"
)

// Scope limits the analyzer to output-producing packages: the query
// definitions, the four engine runtimes, the keyed operators and pane
// state they share (watermark), the shared execution plan, and the
// runners. "/testdata/" keeps analysistest fixtures in scope.
// Harness, broker, metrics, and yarn are intentionally out: they
// measure and transport wall-clock facts and never produce record
// bytes. internal/obs is in: its trace clock is monotonic by
// contract, so any wall-clock read there must be explicitly allowed.
var Scope = []string{
	"internal/obs",
	"internal/queries",
	"internal/watermark",
	"internal/flink",
	"internal/spark",
	"internal/apex",
	"internal/beam/graphx",
	"internal/beam/runner",
	"internal/beam/runners",
	"/testdata/",
}

var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "flag wall-clock reads, global randomness, and map-ordered emission in output-producing packages",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !analysis.PathInScope(pass.Path, Scope) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkClockAndRand(pass, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkMapRanges(pass, n.Body)
				}
			case *ast.FuncLit:
				checkMapRanges(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

// clockWaits are the package time functions that block on, or schedule
// against, the host clock.
var clockWaits = map[string]bool{
	"NewTicker": true,
	"NewTimer":  true,
	"Tick":      true,
	"After":     true,
	"AfterFunc": true,
	"Sleep":     true,
}

// randConstructors are the math/rand(/v2) package-level functions that
// build explicitly seeded generators rather than drawing from the
// global source.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true,
	"NewChaCha8": true,
	"NewZipf":    true,
}

func checkClockAndRand(pass *analysis.Pass, sel *ast.SelectorExpr) {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. on an explicitly seeded *rand.Rand) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		switch {
		case fn.Name() == "Now":
			pass.Reportf(sel.Pos(), "time.Now in output-producing package %s: derive event time from the record, not the host clock", pass.Pkg.Name())
		case clockWaits[fn.Name()]:
			pass.Reportf(sel.Pos(), "time.%s in output-producing package %s waits on the host clock: progress must follow the records, not real time", fn.Name(), pass.Pkg.Name())
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			pass.Reportf(sel.Pos(), "%s.%s draws from the global rand source: use rand.New with an explicit seed so runs are reproducible", fn.Pkg().Name(), fn.Name())
		}
	}
}

// checkMapRanges inspects one function body, skipping nested function
// literals (each is analyzed on its own so "a later sort" is judged
// within the scope that can actually contain one).
func checkMapRanges(pass *analysis.Pass, body *ast.BlockStmt) {
	var ranges []*ast.RangeStmt
	ownStmts(body, func(n ast.Node) {
		if rs, ok := n.(*ast.RangeStmt); ok {
			if _, isMap := pass.TypesInfo.TypeOf(rs.X).Underlying().(*types.Map); isMap {
				ranges = append(ranges, rs)
			}
		}
	})
	for _, rs := range ranges {
		checkMapRange(pass, body, rs)
	}
}

func checkMapRange(pass *analysis.Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt) {
	// Emission: a statement-level call to a function-valued expression
	// (an emit/collect callback) runs once per key in map order; no
	// later sort can undo that.
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := funcValueCallee(pass, call); ok {
			pass.Reportf(call.Pos(), "map iteration order reaches the output: %s is called per map entry inside range-over-map; collect into a slice, sort, then emit", name)
		}
		return true
	})

	// Appends: growing an outer slice in map order is fine only if the
	// slice is deterministically reordered afterwards.
	for _, target := range outerAppendTargets(pass, rs) {
		if !sortedAfter(pass, fnBody, rs, target) {
			pass.Reportf(target.pos, "map iteration order reaches the output: %s is appended inside range-over-map and never sorted afterwards", target.name)
		}
	}
}

// funcValueCallee reports whether call invokes a function-typed value
// (parameter, field, or local variable) rather than a declared
// function or method, returning a printable name.
func funcValueCallee(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if v, ok := pass.TypesInfo.Uses[fun].(*types.Var); ok {
			if _, isFunc := v.Type().Underlying().(*types.Signature); isFunc {
				return fun.Name, true
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok && sel.Kind() == types.FieldVal {
			if _, isFunc := sel.Type().Underlying().(*types.Signature); isFunc {
				return fun.Sel.Name, true
			}
		}
	}
	return "", false
}

// appendTarget is one `x = append(x, ...)` inside the range body where
// x is declared outside the range statement.
type appendTarget struct {
	obj  types.Object // non-nil for plain identifiers
	sel  *types.Selection
	name string
	pos  token.Pos
}

func outerAppendTargets(pass *analysis.Pass, rs *ast.RangeStmt) []appendTarget {
	var out []appendTarget
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltinAppend(pass, call) || i >= len(as.Lhs) {
				continue
			}
			switch lhs := ast.Unparen(as.Lhs[i]).(type) {
			case *ast.Ident:
				obj := pass.TypesInfo.ObjectOf(lhs)
				// Declared before the range statement = outlives it.
				if obj != nil && obj.Pos() < rs.Pos() {
					out = append(out, appendTarget{obj: obj, name: lhs.Name, pos: call.Pos()})
				}
			case *ast.SelectorExpr:
				if sel, ok := pass.TypesInfo.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
					out = append(out, appendTarget{sel: sel, name: lhs.Sel.Name, pos: call.Pos()})
				}
			}
		}
		return true
	})
	return out
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin && id.Name == "append"
}

// sortedAfter reports whether, after the range statement, the
// enclosing function calls a recognized sort with the append target
// among its arguments. Recognized sorts: anything from package sort or
// slices, or any function whose name starts with "sort"/"Sort" (local
// helpers like sortInt64s).
func sortedAfter(pass *analysis.Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt, target appendTarget) bool {
	found := false
	ownStmts(fnBody, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || found {
			return
		}
		if !isSortCall(pass, call) {
			return
		}
		for _, arg := range call.Args {
			if mentions(pass, arg, target) {
				found = true
				return
			}
		}
	})
	return found
}

func isSortCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return hasSortPrefix(fun.Name)
	case *ast.SelectorExpr:
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "sort", "slices":
				return true
			}
		}
		return hasSortPrefix(fun.Sel.Name)
	}
	return false
}

func hasSortPrefix(name string) bool {
	return len(name) >= 4 && (name[:4] == "sort" || name[:4] == "Sort")
}

func mentions(pass *analysis.Pass, expr ast.Expr, target appendTarget) bool {
	hit := false
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if target.obj != nil && pass.TypesInfo.ObjectOf(n) == target.obj {
				hit = true
			}
		case *ast.SelectorExpr:
			if target.sel != nil {
				if sel, ok := pass.TypesInfo.Selections[n]; ok && sel.Obj() == target.sel.Obj() {
					hit = true
				}
			}
		}
		return !hit
	})
	return hit
}

// ownStmts walks a function body, visiting nodes but not descending
// into nested function literals.
func ownStmts(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
