// Package analysis is beambench's compile-time invariant checker: a
// small, dependency-free reimplementation of the golang.org/x/tools
// go/analysis vocabulary (Analyzer, Pass, Diagnostic, SuggestedFix), a
// package loader built on `go list -export`, the //beamvet:allow
// suppression directive, a fix applier, and machine-readable report
// writers (JSON and SARIF). cmd/beamvet drives it; internal/analysis/
// analysistest runs fixture-based analyzer tests against the same
// machinery.
//
// # Why a bespoke analysis layer
//
// The paper's methodology — and this repo's 84-cell acceptance matrix —
// rests on byte-identical output across four engines and on timings
// that a data race or an allocation storm on the record path would
// skew. Runtime property tests only catch a nondeterministic path when
// a seed happens to expose it; these analyzers reject whole bug
// classes at compile time, before any benchmark runs. The x/tools
// module is deliberately not imported: the build environment is
// offline and the module has zero external dependencies. The API
// mirrors go/analysis closely enough that porting the analyzers
// upstream is mechanical.
//
// # The five invariants
//
// determinism — output-producing packages (internal/queries, the
// flink/spark/apex runtimes, internal/beam/graphx, and the runners)
// must not read the wall clock (time.Now), draw from the global rand
// source (package-level math/rand and math/rand/v2 functions), or let
// Go's randomized map iteration order reach the output (emitting per
// map entry, or appending to an outer slice inside range-over-map
// without a later sort). Event time comes from the record's query-time
// column; randomness flows from explicit seeds; grouped results are
// sorted before they are emitted.
//
// ctxleak — goroutines spawned in internal/{broker,harness,flink,
// spark,apex,beam} must have a termination contract: observe a
// context.Context or done channel, or signal completion via a
// sync.WaitGroup, a channel send, or close. Anything else outlives its
// benchmark cell and skews every measurement after it.
//
// errwrap — package-level Err* sentinels (beam.ErrUnsupported and
// friends) must be wrapped with %w in fmt.Errorf and matched with
// errors.Is, never ==, != or switch-case identity. The harness's
// skipped-cell contract depends on errors.Is matching through every
// wrapping layer. Identity comparisons carry a suggested fix when the
// file already imports errors.
//
// locksafe — within internal/{broker,metrics,obs,flink,spark,apex}, a
// struct field that sits next to a sync.Mutex/RWMutex and is accessed
// under that lock on the majority of its in-package accesses is
// inferred guarded; every access outside the lock is then flagged, as
// is any field passed to sync/atomic functions somewhere but read or
// written plainly elsewhere. The inference is positional (a deferred
// Unlock holds to function end, a "Locked"-suffix function is
// caller-holds-lock, a goroutine body starts lock-free), so deliberate
// lock-free fast paths carry their memory-ordering argument in a
// //beamvet:allow locksafe annotation. Fields whose types synchronize
// themselves (sync/atomic values, and arrays/slices/structs composed
// of them) are exempt.
//
// hotalloc — code reachable from the per-record entry points (methods
// named Process/ProcessElement/Invoke/Encode/Decode/Mark/MarkAt/
// Insert/Send/SendAt/Collect and function literals taking []byte,
// walked through the same-package call graph) must avoid
// []byte<->string conversions (the compiler-optimized map-index and
// comparison forms are exempt), fmt.Sprint*, unsized make or append
// growth inside per-record loops (three-argument make and buf[:0]
// scratch reuse are capacity-managed and exempt), closures that
// capture enclosing variables and escape, and whole-record copies
// (d := make([]byte, len(x)) with copy(d, x), append([]byte(nil),
// x...): records are immutable once Producer.Send has taken them into
// a log, see broker.Record). Findings that are the operation's
// contract — a string coder's conversion, the producer's one copy of a
// record, the fused-stage emitter closure whose cost the benchmark
// measures — are allow-annotated with the rationale, making
// the annotation set the repo's per-record allocation inventory.
//
// # Suppressing a finding
//
// Annotate the flagged line, or the line directly above it:
//
//	//beamvet:allow <check> <reason>
//
// where <check> is determinism, ctxleak, errwrap, locksafe, or
// hotalloc. The reason is mandatory, and a directive that suppresses
// nothing is itself an error (with a suggested fix that deletes it),
// so the annotation inventory cannot rot.
//
// # Suggested fixes
//
// A Diagnostic may carry SuggestedFixes, each a list of TextEdits.
// ApplyFixes applies the first fix of every diagnostic purely (the
// rewritten bytes are returned, not written), accepting edits in
// diagnostic order and skipping a fix whole if any of its edits
// overlaps an already-accepted edit. Deletions widen over surrounding
// whitespace, and over the entire line when it would be left blank.
// `beamvet -fix` writes the results and re-analyzes from the rewritten
// sources: it exits 0 only when every finding was fixable, every fix
// applied, and the re-run is clean — so -fix is idempotent and a 0
// means the tree is clean now. See cmd/beamvet's package comment for
// the full exit-code contract.
//
// # Machine-readable reports
//
// `beamvet -json` emits a Report (schema version ReportVersion):
// tool/version header, every check that ran, and one Finding per
// diagnostic with module-relative file, line, column, message, and
// fixability. `beamvet -sarif` emits the same findings as a SARIF
// 2.1.0 document for code-scanning ingestion. With either flag the
// human-readable findings move to stderr so stdout stays parseable.
//
// # Running
//
//	go run ./cmd/beamvet ./...
//
// exits 0 only if every package is clean. CI runs it as a required
// matrix job: a gate leg that uploads the JSON and SARIF reports, and
// a fix-idempotence leg asserting -fix rewrites nothing on a clean
// tree.
package analysis
