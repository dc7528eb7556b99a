package harness

import (
	"bytes"
	"testing"

	"beambench/internal/metrics"
	"beambench/internal/queries"
	"beambench/internal/stats"
)

// scrambledReport builds a report whose cells arrive in anti-canonical
// order with unsorted stage lists, as a concurrent matrix might produce.
func scrambledReport(t *testing.T) *Report {
	t.Helper()
	mk := func(sys System, api API, q queries.Query, par int) *Cell {
		return &Cell{
			Setup:               Setup{System: sys, API: api, Query: q, Parallelism: par},
			TimesSec:            []float64{0.25, 0.5},
			Summary:             stats.Summary{Mean: 0.375, RelStdDev: 0.3},
			OutputRecords:       100,
			OutputRecordsPerRun: []int64{100, 100},
			Stages: []metrics.StageSummary{
				{Name: "sink", Records: 100},
				{Name: "source", Records: 200},
			},
		}
	}
	qs := queries.All()
	if len(qs) < 2 {
		t.Fatal("need at least two queries")
	}
	return &Report{
		Records:      1000,
		Runs:         2,
		Parallelisms: []int{1, 2},
		Fusion:       "default",
		Ingest:       "preload",
		Host:         Host{NumCPU: 2, GOMAXPROCS: 2, Workers: 4, GoVersion: "go1.24.0"},
		Cells: []*Cell{
			mk(SystemSpark, APINative, qs[1], 2),
			mk(SystemFlink, APIBeam, qs[1], 2),
			mk(SystemFlink, APIBeam, qs[1], 1),
			mk(SystemApex, APIBeam, qs[0], 1),
			mk(SystemFlink, APINative, qs[0], 1),
		},
	}
}

func TestWriteJSONCanonicalOrder(t *testing.T) {
	rep := scrambledReport(t)
	rj := rep.JSON()
	qs := queries.All()
	wantKeys := []string{
		"Apex Beam P1 " + qs[0].String(),
		"Flink P1 " + qs[0].String(),
		"Flink Beam P1 " + qs[1].String(),
		"Flink Beam P2 " + qs[1].String(),
		"Spark P2 " + qs[1].String(),
	}
	if len(rj.Cells) != len(wantKeys) {
		t.Fatalf("serialized %d cells, want %d", len(rj.Cells), len(wantKeys))
	}
	for i, want := range wantKeys {
		if got := rj.Cells[i].Key(); got != want {
			t.Errorf("cell %d = %q, want %q", i, got, want)
		}
	}
	for _, c := range rj.Cells {
		for i := 1; i < len(c.Stages); i++ {
			if c.Stages[i-1].Name > c.Stages[i].Name {
				t.Fatalf("cell %s stages not sorted: %q > %q", c.Key(), c.Stages[i-1].Name, c.Stages[i].Name)
			}
		}
	}
	// The source report's stage slices must not be reordered in place.
	if rep.Cells[0].Stages[0].Name != "sink" {
		t.Fatal("JSON() mutated the report's stage order")
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep := scrambledReport(t)
	var first bytes.Buffer
	if err := rep.WriteJSON(&first); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseReportJSON(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := parsed.Write(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("round trip not byte-stable:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
	}
	if parsed.Records != rep.Records || parsed.Runs != rep.Runs || len(parsed.Cells) != len(rep.Cells) {
		t.Fatalf("parsed header = %+v", parsed)
	}
}

// TestReportJSONHostFacts: the host facts survive a round trip, and a
// report recorded before they were kept still parses, with no host,
// and re-serializes byte-identically.
func TestReportJSONHostFacts(t *testing.T) {
	rep := scrambledReport(t)
	var withHost bytes.Buffer
	if err := rep.WriteJSON(&withHost); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseReportJSON(bytes.NewReader(withHost.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Host == nil || *parsed.Host != rep.Host {
		t.Fatalf("parsed host = %v, want %v", parsed.Host, rep.Host)
	}

	parsed.Host = nil
	var without bytes.Buffer
	if err := parsed.Write(&without); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(without.Bytes(), []byte(`"host"`)) {
		t.Fatalf("report without host facts serialized a host block:\n%s", without.String())
	}
	old, err := ParseReportJSON(bytes.NewReader(without.Bytes()))
	if err != nil {
		t.Fatalf("report without host facts rejected: %v", err)
	}
	if old.Host != nil {
		t.Fatalf("report without host facts parsed a host: %v", old.Host)
	}
	var again bytes.Buffer
	if err := old.Write(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(without.Bytes(), again.Bytes()) {
		t.Fatalf("report without host facts not byte-stable:\nfirst:\n%s\nsecond:\n%s", without.String(), again.String())
	}
}

func TestParseReportJSONRejectsUnknownFields(t *testing.T) {
	if _, err := ParseReportJSON(bytes.NewReader([]byte(`{"records":1,"bogus":2}`))); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestWriteJSONDeterministicAcrossShuffles(t *testing.T) {
	a := scrambledReport(t)
	b := scrambledReport(t)
	// Reverse b's cell order; serialization must not care.
	for i, j := 0, len(b.Cells)-1; i < j; i, j = i+1, j-1 {
		b.Cells[i], b.Cells[j] = b.Cells[j], b.Cells[i]
	}
	var bufA, bufB bytes.Buffer
	if err := a.WriteJSON(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatalf("cell arrival order leaked into serialization:\nA:\n%s\nB:\n%s", bufA.String(), bufB.String())
	}
}
