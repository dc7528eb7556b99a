// Command beamvet runs beambench's repo-specific static analyzers over
// Go packages and exits non-zero if any invariant is violated. It is a
// CI gate alongside go vet and staticcheck:
//
//	go run ./cmd/beamvet ./...
//
// Five analyzers run (see internal/analysis and its doc.go):
//
//	determinism  no wall-clock, global randomness, or map-ordered
//	             emission in output-producing packages
//	ctxleak      goroutines in the broker/harness/runtimes must observe
//	             a context/done channel or signal completion
//	errwrap      Err* sentinels are wrapped with %w and compared with
//	             errors.Is
//	locksafe     struct fields guarded by a sibling mutex are accessed
//	             under it, and never mixed atomic/plain
//	hotalloc     per-record paths avoid conversions, fmt.Sprint*,
//	             unsized growth, escaping closures, and whole-record
//	             copies
//
// A finding is suppressed by annotating the flagged line (or the line
// above it) with `//beamvet:allow <check> <reason>`; the reason is
// mandatory and unused directives are themselves errors, so the
// annotation inventory stays honest.
//
// # Output modes
//
// By default findings print one per line to stdout. With -json the
// stdout payload is instead the machine-readable report
// (internal/analysis.Report, schema version 2) and the human lines move
// to stderr; with -sarif stdout carries a SARIF 2.1.0 document for code
// scanning. Under GitHub Actions (GITHUB_ACTIONS=true) findings are
// additionally emitted as ::error workflow annotations on stderr.
//
// # Exit codes
//
// beamvet distinguishes "the code is dirty" from "the tool failed":
//
//	0  no findings (after fixes were applied, when -fix is given)
//	1  findings remain
//	2  operational failure (bad pattern, load or type-check error)
//
// Under -fix the contract is strict: fixable findings are repaired in
// place, then the packages are reloaded and re-analyzed from the
// rewritten sources. beamvet -fix exits 0 only when every finding was
// fixable, every fix applied, and the re-run reports zero findings —
// so a 0 from -fix means the tree is clean NOW, not merely that fixes
// were attempted. Findings with no mechanical repair, fixes skipped
// because they overlapped another fix (run -fix again once the first
// batch lands), and findings still present on re-run all force exit 1.
// Consequently -fix on an already-clean tree rewrites nothing and
// exits 0: applying fixes is idempotent, and CI asserts this with a
// git diff --exit-code after a -fix run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"beambench/internal/analysis"
	"beambench/internal/analysis/analyzers/ctxleak"
	"beambench/internal/analysis/analyzers/determinism"
	"beambench/internal/analysis/analyzers/errwrap"
	"beambench/internal/analysis/analyzers/hotalloc"
	"beambench/internal/analysis/analyzers/locksafe"
	"beambench/internal/analysis/load"
)

var analyzers = []*analysis.Analyzer{
	determinism.Analyzer,
	ctxleak.Analyzer,
	errwrap.Analyzer,
	locksafe.Analyzer,
	hotalloc.Analyzer,
}

func main() {
	opts := options{env: os.Getenv}
	flag.BoolVar(&opts.verbose, "v", false, "list every package as it is analyzed")
	flag.BoolVar(&opts.fix, "fix", false, "apply suggested fixes in place, then re-analyze; exit 0 only if the re-run is clean")
	flag.BoolVar(&opts.jsonOut, "json", false, "write the machine-readable report to stdout (human findings move to stderr)")
	flag.BoolVar(&opts.sarifOut, "sarif", false, "write a SARIF 2.1.0 report to stdout (human findings move to stderr)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: beamvet [-v] [-fix] [-json|-sarif] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Analyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if opts.jsonOut && opts.sarifOut {
		fmt.Fprintln(os.Stderr, "beamvet: -json and -sarif are mutually exclusive")
		os.Exit(2)
	}

	os.Exit(run(".", flag.Args(), opts, os.Stdout, os.Stderr))
}

// options collects the flag state so tests can drive run directly.
type options struct {
	verbose  bool
	fix      bool
	jsonOut  bool
	sarifOut bool
	// env reads environment variables; tests stub it to exercise the
	// GitHub annotation path without being on Actions.
	env func(string) string
}

// run analyzes the patterns (resolved relative to dir) and returns the
// process exit code: 0 clean, 1 findings, 2 operational failure. See
// the package comment for the -fix contract.
func run(dir string, patterns []string, opts options, stdout, stderr io.Writer) int {
	if opts.env == nil {
		opts.env = os.Getenv
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := filepath.Abs(dir)
	if err != nil {
		root = dir
	}

	res, code := analyze(dir, patterns, opts.verbose, stderr)
	if code != 0 {
		return code
	}

	fixFailed := false
	if opts.fix && res.count > 0 {
		var applyErr error
		res, fixFailed, applyErr = applyAll(dir, patterns, res, opts, stderr)
		if applyErr != nil {
			fmt.Fprintln(stderr, "beamvet:", applyErr)
			return 2
		}
	}

	// Findings go to stdout normally; with a machine-readable report on
	// stdout they move to stderr so the payload stays parseable.
	human := stdout
	if opts.jsonOut || opts.sarifOut {
		human = stderr
	}
	var findings []analysis.Finding
	for _, pd := range res.diags {
		for _, d := range pd.diags {
			fmt.Fprintf(human, "%s: %s: %s\n", pd.pkg.Fset.Position(d.Pos), d.Check, d.Message)
			findings = append(findings, analysis.NewFinding(pd.pkg.Fset, root, d))
		}
	}
	if opts.env("GITHUB_ACTIONS") == "true" {
		for _, f := range findings {
			fmt.Fprintf(stderr, "::error file=%s,line=%d,col=%d::%s: %s\n", f.File, f.Line, f.Column, f.Check, f.Message)
		}
	}

	report := analysis.NewReport(analyzers, findings)
	if opts.jsonOut {
		if err := report.WriteJSON(stdout); err != nil {
			fmt.Fprintln(stderr, "beamvet:", err)
			return 2
		}
	}
	if opts.sarifOut {
		if err := report.WriteSARIF(stdout); err != nil {
			fmt.Fprintln(stderr, "beamvet:", err)
			return 2
		}
	}

	if res.count > 0 || fixFailed {
		fmt.Fprintf(stderr, "beamvet: %d finding(s)\n", res.count)
		return 1
	}
	return 0
}

// pkgDiags pairs a loaded package with its surviving diagnostics.
type pkgDiags struct {
	pkg   *load.Package
	diags []analysis.Diagnostic
}

// analysisResult is one full pass over the requested packages.
type analysisResult struct {
	diags []pkgDiags
	count int
}

func analyze(dir string, patterns []string, verbose bool, stderr io.Writer) (*analysisResult, int) {
	pkgs, err := load.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "beamvet:", err)
		return nil, 2
	}
	res := &analysisResult{}
	for _, pkg := range pkgs {
		if verbose {
			fmt.Fprintln(stderr, "beamvet:", pkg.ImportPath)
		}
		diags, err := analysis.RunPackage(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(stderr, "beamvet:", err)
			return nil, 2
		}
		res.diags = append(res.diags, pkgDiags{pkg: pkg, diags: diags})
		res.count += len(diags)
	}
	return res, 0
}

// applyAll applies suggested fixes package by package, writes the
// rewritten files, and re-analyzes from disk. It returns the re-run's
// result plus fixFailed=true when the fix pass itself already knows
// exit 0 is impossible (unfixable or conflicted findings), so a clean
// re-run cannot mask them.
func applyAll(dir string, patterns []string, res *analysisResult, opts options, stderr io.Writer) (*analysisResult, bool, error) {
	applied, unfixable, conflicted := 0, 0, 0
	for _, pd := range res.diags {
		if len(pd.diags) == 0 {
			continue
		}
		ar, err := analysis.ApplyFixes(pd.pkg.Fset, pd.diags, nil)
		if err != nil {
			return nil, true, err
		}
		if err := analysis.WriteFixes(ar); err != nil {
			return nil, true, err
		}
		applied += ar.Applied
		unfixable += len(ar.Unfixable)
		conflicted += len(ar.Conflicted)
		for _, f := range ar.Files {
			if opts.verbose {
				fmt.Fprintln(stderr, "beamvet: fixed", f.Filename)
			}
		}
	}
	fmt.Fprintf(stderr, "beamvet: applied %d fix(es)", applied)
	if unfixable > 0 {
		fmt.Fprintf(stderr, ", %d finding(s) have no mechanical fix", unfixable)
	}
	if conflicted > 0 {
		fmt.Fprintf(stderr, ", %d fix(es) skipped as overlapping (re-run -fix)", conflicted)
	}
	fmt.Fprintln(stderr)

	rerun, code := analyze(dir, patterns, opts.verbose, stderr)
	if code != 0 {
		return nil, true, fmt.Errorf("re-analysis after fixes failed")
	}
	return rerun, unfixable > 0 || conflicted > 0, nil
}
