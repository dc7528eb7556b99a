package queries

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"beambench/internal/aol"
	"beambench/internal/beam/runner/direct"
	"beambench/internal/flink"
	"beambench/internal/spark"
)

func TestEventTimeParsesQueryTimeColumn(t *testing.T) {
	rec := []byte("12345\tweather forecast\t2006-03-01 00:02:05\t1\thttp://www.example.com/")
	et, err := EventTime(rec)
	if err != nil {
		t.Fatal(err)
	}
	want := time.Date(2006, time.March, 1, 0, 2, 5, 0, time.UTC)
	if !et.Equal(want) {
		t.Errorf("EventTime = %v, want %v", et, want)
	}
	if _, err := EventTime([]byte("no tabs here")); err == nil {
		t.Error("record without columns accepted")
	}
	if _, err := EventTime([]byte("a\tb\tnot a time\tc\td")); err == nil {
		t.Error("malformed query time accepted")
	}
}

func TestEventTimeMatchesGeneratorStep(t *testing.T) {
	gen, err := aol.NewGenerator(aol.Config{Records: 20, Seed: 3, GrepHits: 0, QueryTimeStep: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	data := gen.All()
	// 250ms steps with second-granularity formatting: records 0-3 share
	// second 0, records 4-7 second 1, ...
	for i, rec := range data {
		et, err := EventTime(rec)
		if err != nil {
			t.Fatal(err)
		}
		wantSec := int64(i / 4)
		if got := et.Unix() - mustEventTime(t, data[0]).Unix(); got != wantSec {
			t.Fatalf("record %d event second = %d, want %d", i, got, wantSec)
		}
	}
}

func mustEventTime(t *testing.T, rec []byte) time.Time {
	t.Helper()
	et, err := EventTime(rec)
	if err != nil {
		t.Fatal(err)
	}
	return et
}

// TestFormatPane covers both windowed aggregate queries: a count and a
// sum render through the one formatter.
func TestFormatPane(t *testing.T) {
	for _, tc := range []struct {
		sec   int
		value int64
	}{{42, 7}, {4, 9}} {
		start := time.Date(2006, time.March, 1, 0, 0, tc.sec, 0, time.UTC)
		got := string(FormatPane(start, []byte("123456"), tc.value))
		want := fmt.Sprintf("%d\t123456\t%d", start.Unix(), tc.value)
		if got != want {
			t.Errorf("FormatPane = %q, want %q", got, want)
		}
	}
}

func TestExpectedWindowedCountsAggregates(t *testing.T) {
	mk := func(user string, sec int) []byte {
		ts := time.Date(2006, time.March, 1, 0, 0, sec, 0, time.UTC).Format("2006-01-02 15:04:05")
		return []byte(user + "\tsome query\t" + ts + "\t\t")
	}
	data := [][]byte{
		mk("u1", 0), mk("u2", 0), mk("u1", 0), // window 0: u1=2, u2=1
		mk("u1", 5), // window 5: u1=1
		mk("u3", 2), // window 2: u3=1
	}
	got, err := ExpectedWindowedCounts(data)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2006, time.March, 1, 0, 0, 0, 0, time.UTC).Unix()
	want := []string{
		fmt.Sprintf("%d\tu1\t2", base),
		fmt.Sprintf("%d\tu2\t1", base),
		fmt.Sprintf("%d\tu3\t1", base+2),
		fmt.Sprintf("%d\tu1\t1", base+5),
	}
	gotS := make([]string, len(got))
	for i, g := range got {
		gotS[i] = string(g)
	}
	if !reflect.DeepEqual(gotS, want) {
		t.Errorf("ExpectedWindowedCounts = %v, want %v", gotS, want)
	}
}

// subSecondDataset builds a workload whose windows hold several records
// for the same user, exercising real aggregation (counts above one).
func subSecondDataset(t *testing.T, records int) [][]byte {
	t.Helper()
	gen, err := aol.NewGenerator(aol.Config{Records: records, Seed: 5, GrepHits: -1, QueryTimeStep: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	data := gen.All()
	// Replace user IDs with a tiny key space so (window, user) panes
	// carry multi-record counts.
	for i, rec := range data {
		cols := strings.SplitN(string(rec), "\t", 2)
		data[i] = []byte(fmt.Sprintf("user%d\t%s", i%3, cols[1]))
	}
	return data
}

// TestWindowedCountMultiRecordWindowsAcrossImplementations is the
// aggregation correctness check: with ~10 records per window and 3
// users, each pane's count exceeds one, and all four implementations
// must agree with the dataset-derived reference as a multiset.
func TestWindowedCountMultiRecordWindowsAcrossImplementations(t *testing.T) {
	data := subSecondDataset(t, 400)
	wantPayloads, err := ExpectedWindowedCounts(data)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(wantPayloads))
	multi := 0
	for i, p := range wantPayloads {
		want[i] = string(p)
		if !strings.HasSuffix(want[i], "\t1") {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("reference has no multi-record panes; dataset does not exercise aggregation")
	}
	sort.Strings(want)

	outputs := map[string][]string{}

	// Native Flink.
	{
		w := newWorkload(t, data)
		cluster, err := flink.NewCluster(flink.ClusterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		cluster.Start()
		env := flink.NewEnvironment(cluster).SetParallelism(2)
		if err := NativeFlink(env, w, WindowedCount); err != nil {
			t.Fatal(err)
		}
		if _, err := env.Execute("windowed"); err != nil {
			t.Fatal(err)
		}
		cluster.Stop()
		outputs["flink"] = outputPayloads(t, w)
	}
	// Native Spark.
	{
		w := newWorkload(t, data)
		cluster, err := spark.NewCluster(spark.ClusterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		cluster.Start()
		ssc, err := spark.NewStreamingContext(cluster, spark.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := NativeSpark(ssc, w, WindowedCount); err != nil {
			t.Fatal(err)
		}
		if _, err := ssc.RunBounded(); err != nil {
			t.Fatal(err)
		}
		cluster.Stop()
		outputs["spark"] = outputPayloads(t, w)
	}
	// Beam on the direct runner (the reference translation).
	{
		w := newWorkload(t, data)
		p, err := BeamPipeline(w, WindowedCount)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := direct.Run(p); err != nil {
			t.Fatal(err)
		}
		outputs["beam-direct"] = outputPayloads(t, w)
	}

	for name, got := range outputs {
		sorted := append([]string(nil), got...)
		sort.Strings(sorted)
		if !reflect.DeepEqual(sorted, want) {
			t.Errorf("%s: sorted output (%d panes) differs from dataset-derived reference (%d panes)",
				name, len(sorted), len(want))
		}
	}
}

func outputPayloads(t *testing.T, w Workload) []string {
	t.Helper()
	recs, err := w.Broker.Records(w.OutputTopic, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = string(r.Value)
	}
	return out
}

func TestWindowedCountSurvivorIndexPairsAggregates(t *testing.T) {
	data := subSecondDataset(t, 200)
	ix, err := NewSurvivorIndex(WindowedCount, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range data {
		ix.AddInput(rec)
	}
	wantPayloads, err := ExpectedWindowedCounts(data)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Expected() != len(wantPayloads) {
		t.Fatalf("Expected() = %d, want %d panes", ix.Expected(), len(wantPayloads))
	}
	pairing := ix.NewPairing()
	for _, payload := range wantPayloads {
		ordinal, err := pairing.Pair(payload)
		if err != nil {
			t.Fatalf("Pair(%q): %v", payload, err)
		}
		// The paired input must be a contributing record: same user and
		// same event-time window as the pane.
		rec := data[ordinal]
		user, _ := UserKey(rec)
		if !strings.HasPrefix(string(payload), fmt.Sprintf("%d\t%s\t", mustEventTime(t, rec).Truncate(WindowedCountWindow).Unix(), user)) {
			t.Errorf("pane %q paired with non-contributing input %q", payload, rec)
		}
	}
	// A second pairing of the same payload set must fail once consumed.
	if _, err := pairing.Pair(wantPayloads[0]); err == nil {
		t.Error("pane consumed twice")
	}
}
