package main

import (
	"os"
	"strings"
	"testing"

	"beambench/internal/queries"
)

func TestParseQuery(t *testing.T) {
	tests := []struct {
		give    string
		want    queries.Query
		wantErr bool
	}{
		{give: "identity", want: queries.Identity},
		{give: "Sample", want: queries.Sample},
		{give: "PROJECTION", want: queries.Projection},
		{give: "grep", want: queries.Grep},
		{give: "wordcount", wantErr: true},
		{give: "", wantErr: true},
	}
	for _, tt := range tests {
		got, err := parseQuery(tt.give)
		if (err != nil) != tt.wantErr {
			t.Errorf("parseQuery(%q) error = %v, wantErr %v", tt.give, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("parseQuery(%q) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestSelectQueries(t *testing.T) {
	all, err := selectQueries(0, 0, true, "")
	if err != nil || len(all) != len(queries.All()) {
		t.Errorf("all = %v, %v", all, err)
	}
	fig6, err := selectQueries(6, 0, false, "")
	if err != nil || len(fig6) != 1 || fig6[0] != queries.Identity {
		t.Errorf("fig6 = %v, %v", fig6, err)
	}
	fig11, err := selectQueries(11, 0, false, "")
	if err != nil || len(fig11) != len(queries.All()) {
		t.Errorf("fig11 = %v, %v", fig11, err)
	}
	table3, err := selectQueries(0, 3, false, "")
	if err != nil || len(table3) != 1 || table3[0] != queries.Identity {
		t.Errorf("table3 = %v, %v", table3, err)
	}
	limited, err := selectQueries(11, 0, false, "grep")
	if err != nil || len(limited) != 1 || limited[0] != queries.Grep {
		t.Errorf("limited = %v, %v", limited, err)
	}
	if _, err := selectQueries(0, 0, false, ""); err == nil {
		t.Error("empty selection accepted")
	}
	if _, err := selectQueries(0, 0, false, "bogus"); err == nil {
		t.Error("bogus query accepted")
	}
}

func TestRunStaticOutputs(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-print", "systems"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Tuple-by-tuple") {
		t.Errorf("systems output missing content:\n%s", sb.String())
	}

	sb.Reset()
	if err := run([]string{"-print", "queries", "-records", "1000"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Grep") {
		t.Errorf("queries output missing content:\n%s", sb.String())
	}

	sb.Reset()
	if err := run([]string{"-table", "1"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table I") {
		t.Errorf("table 1 output missing content:\n%s", sb.String())
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{}, &sb); err == nil {
		t.Error("no-op invocation accepted")
	}
	if err := run([]string{"-print", "bogus"}, &sb); err == nil {
		t.Error("bogus print target accepted")
	}
	if err := run([]string{"-figure", "99"}, &sb); err == nil {
		t.Error("bogus figure accepted")
	}
}

func TestRunTinyFigure(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-figure", "9", "-records", "500", "-runs", "1", "-quiet", "-no-noise"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Grep Query", "Apex Beam P1", "Spark P2"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("figure output missing %q:\n%s", want, sb.String())
		}
	}
}

func TestRunWorkersFlag(t *testing.T) {
	var seq, par strings.Builder
	args := []string{"-figure", "9", "-records", "500", "-runs", "1", "-quiet", "-no-noise"}
	if err := run(append(args, "-workers", "1"), &seq); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-workers", "4"), &par); err != nil {
		t.Fatal(err)
	}
	// The figures print mean execution times, which vary run to run, but
	// the row labels and their order must be identical at any worker
	// count.
	rowLabels := func(s string) []string {
		var out []string
		for _, line := range strings.Split(s, "\n") {
			fields := strings.Fields(line)
			if len(fields) > 2 && fields[len(fields)-1] == "s" {
				out = append(out, strings.Join(fields[:len(fields)-2], " "))
			}
		}
		return out
	}
	// The text header records the worker count each run used.
	for out, want := range map[string]string{seq.String(): "workers=1 ", par.String(): "workers=4 "} {
		if first, _, _ := strings.Cut(out, "\n"); !strings.HasPrefix(first, "Host: nproc=") || !strings.Contains(first, want) {
			t.Errorf("header %q, want the host facts with %q", first, want)
		}
	}
	seqRows, parRows := rowLabels(seq.String()), rowLabels(par.String())
	if len(seqRows) != 12 {
		t.Fatalf("sequential figure has %d rows, want 12:\n%s", len(seqRows), seq.String())
	}
	for i := range seqRows {
		if seqRows[i] != parRows[i] {
			t.Errorf("row %d differs: %q vs %q", i, seqRows[i], parRows[i])
		}
	}

	if err := run(append(args, "-workers", "0"), &par); err == nil {
		t.Error("-workers 0 accepted")
	}
}

func TestRunIngestStreamFlag(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/report.json"
	var sb strings.Builder
	err := run([]string{
		"-figure", "9", "-records", "500", "-runs", "1", "-quiet", "-no-noise",
		"-ingest", "stream", "-rate", "100000", "-json", path,
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Grep Query", "ingest=stream@100000 rec/s", "Apex Beam P1", "Spark P2"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("stream-mode figure missing %q:\n%s", want, sb.String())
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"ingest": "stream"`, `"rateRecordsPerSec": 100000`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSON report missing %s:\n%s", want, data)
		}
	}

	if err := run([]string{"-figure", "9", "-ingest", "bogus"}, &sb); err == nil {
		t.Error("bogus ingest mode accepted")
	}
	if err := run([]string{"-figure", "9", "-rate", "100"}, &sb); err == nil {
		t.Error("-rate without -ingest stream accepted")
	}
}

func TestRunLatencyFlag(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-figure", "9", "-records", "500", "-runs", "1", "-quiet", "-no-noise", "-latency"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Event-Time Latency and Per-Stage Throughput",
		"p50", "p90", "p99", "rec/s peak",
		"Apex Beam P1 Grep", "Spark P2 Grep",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("latency output missing %q:\n%s", want, out)
		}
	}
}

func TestRunLatencyJSON(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/report.json"
	var sb strings.Builder
	err := run([]string{"-figure", "9", "-records", "500", "-runs", "1", "-quiet", "-no-noise", "-latency", "-json", path}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"latency"`, `"p99Sec"`, `"stages"`, `"peakRate"`, `"outputRecordsPerRun"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSON report missing %s:\n%s", want, data)
		}
	}
}
