package queries

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"beambench/internal/beam/runner/direct"
	"beambench/internal/flink"
)

func TestItemRankColumn(t *testing.T) {
	rec := []byte("12345\tweather\t2006-03-01 00:00:00\t7\thttp://www.example.com/")
	v, err := ItemRank(rec)
	if err != nil || v != 7 {
		t.Errorf("ItemRank = %d, %v, want 7", v, err)
	}
	if !HasItemRank(rec) {
		t.Error("HasItemRank = false for a click record")
	}
	noClick := []byte("12345\tweather\t2006-03-01 00:00:00\t\t")
	v, err = ItemRank(noClick)
	if err != nil || v != 0 {
		t.Errorf("ItemRank(no click) = %d, %v, want 0", v, err)
	}
	if HasItemRank(noClick) {
		t.Error("HasItemRank = true for a record without a rank")
	}
	if _, err := ItemRank([]byte("u\tq\tt\tnot a number\t")); err == nil {
		t.Error("malformed rank accepted")
	}
}

// TestExpectedSlidingSumsOverlap pins the overlap semantics: each
// record contributes to the two sliding windows containing its event
// second, and sums accumulate per (window, user).
func TestExpectedSlidingSumsOverlap(t *testing.T) {
	mk := func(user string, sec, rank int) []byte {
		ts := time.Date(2006, time.March, 1, 0, 0, sec, 0, time.UTC).Format("2006-01-02 15:04:05")
		r := ""
		if rank > 0 {
			r = fmt.Sprintf("%d", rank)
		}
		return []byte(user + "\tsome query\t" + ts + "\t" + r + "\t")
	}
	data := [][]byte{
		mk("u1", 2, 3),
		mk("u1", 3, 5), // shares window [2,4) with the first record
		mk("u2", 3, 0), // no click: contributes 0 to u2's windows
	}
	got, err := ExpectedSlidingSums(data)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2006, time.March, 1, 0, 0, 0, 0, time.UTC).Unix()
	// Windows fire ascending by (end, start): [1,3) u1=3, [2,4) u1=8 and
	// u2=0, [3,5) u1=5 and u2=0.
	want := []string{
		fmt.Sprintf("%d\tu1\t3", base+1),
		fmt.Sprintf("%d\tu1\t8", base+2),
		fmt.Sprintf("%d\tu2\t0", base+2),
		fmt.Sprintf("%d\tu1\t5", base+3),
		fmt.Sprintf("%d\tu2\t0", base+3),
	}
	gotS := make([]string, len(got))
	for i, g := range got {
		gotS[i] = string(g)
	}
	if !reflect.DeepEqual(gotS, want) {
		t.Errorf("ExpectedSlidingSums = %v, want %v", gotS, want)
	}
}

// TestSlidingSumSubSecondDatasetAcrossImplementations reuses the
// sub-second generator step (several records per event second, tiny
// key space) so sliding panes aggregate multiple records, and checks
// native Flink and the Beam direct runner against the dataset-derived
// reference.
func TestSlidingSumSubSecondDatasetAcrossImplementations(t *testing.T) {
	data := subSecondDataset(t, 300)
	wantPayloads, err := ExpectedSlidingSums(data)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(wantPayloads))
	for i, p := range wantPayloads {
		want[i] = string(p)
	}
	sort.Strings(want)
	if len(want) == 0 {
		t.Fatal("empty reference")
	}

	outputs := map[string][]string{}
	{
		w := newWorkload(t, data)
		cluster, err := flink.NewCluster(flink.ClusterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		cluster.Start()
		env := flink.NewEnvironment(cluster).SetParallelism(2)
		if err := NativeFlink(env, w, SlidingSum); err != nil {
			t.Fatal(err)
		}
		if _, err := env.Execute("sliding"); err != nil {
			t.Fatal(err)
		}
		cluster.Stop()
		outputs["flink"] = outputPayloads(t, w)
	}
	{
		w := newWorkload(t, data)
		p, err := BeamPipeline(w, SlidingSum)
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
			t.Errorf("%s: sorted output (%d panes) differs from reference (%d panes)",
				name, len(sorted), len(want))
		}
	}
	// Overlap sanity: sliding panes roughly double the tumbling pane
	// count on the same dataset.
	tumbling, err := ExpectedWindowedCounts(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) <= len(tumbling) {
		t.Errorf("sliding panes (%d) not more numerous than tumbling panes (%d); overlap not exercised",
			len(want), len(tumbling))
	}
}

func TestSlidingSumSurvivorIndexPairsPanes(t *testing.T) {
	data := subSecondDataset(t, 200)
	ix, err := NewSurvivorIndex(SlidingSum, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range data {
		ix.AddInput(rec)
	}
	wantPayloads, err := ExpectedSlidingSums(data)
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
		// The paired input must contribute to the pane: same user, and
		// the pane's window must contain the record's event second.
		rec := data[ordinal]
		user, _ := UserKey(rec)
		parts := strings.SplitN(string(payload), "\t", 3)
		if parts[1] != string(user) {
			t.Errorf("pane %q paired with record of user %s", payload, user)
		}
		et := mustEventTime(t, rec)
		var startUnix int64
		fmt.Sscanf(parts[0], "%d", &startUnix)
		start := time.Unix(startUnix, 0).UTC()
		if et.Before(start) || !et.Before(start.Add(SlidingSumWindow)) {
			t.Errorf("pane %q paired with record outside its window (event %v)", payload, et)
		}
	}
}
