package spark

import "testing"

// TestShuffleCopiesNothing pins the ownership rule at the shuffle: the
// records come out as the slices that went in, and the shuffle
// allocates only its partition lists — nothing per record. What a
// shuffle costs is the SparkShufflePerRecord charge.
func TestShuffleCopiesNothing(t *testing.T) {
	ssc := newContext(t, newTestCluster(t, ClusterConfig{}), Config{})
	const n = 4096
	rec := []byte("1\tquery\t2006-03-01 00:00:00\t\t")
	part := make([][]byte, n)
	for i := range part {
		part[i] = rec
	}
	for _, keyFn := range []func([]byte) ([]byte, error){nil, func(r []byte) ([]byte, error) { return r[:1], nil }} {
		out, err := ssc.shuffle([][][]byte{part}, 2, keyFn)
		if err != nil {
			t.Fatal(err)
		}
		var total int
		for _, p := range out {
			for _, r := range p {
				if &r[0] != &rec[0] {
					t.Fatal("shuffle delivered a copy of the record")
				}
			}
			total += len(p)
		}
		if total != n {
			t.Fatalf("shuffle kept %d of %d records", total, n)
		}
		// Growing two partition lists to 4096 entries takes a few
		// dozen allocations; one per record would be 4096.
		if got := testing.AllocsPerRun(10, func() { _, _ = ssc.shuffle([][][]byte{part}, 2, keyFn) }); got > n/50 {
			t.Errorf("shuffle of %d records: %v allocations, want none per record", n, got)
		}
	}
}
