package queries

import (
	"fmt"
	"testing"
	"time"
)

// referenceEventTime is EventTime as it was before the hand-written
// fast path: the query-time column through time.Parse, nothing else.
func referenceEventTime(rec []byte) (time.Time, error) {
	col := nthColumn(rec, 2)
	if col == nil {
		return time.Time{}, fmt.Errorf("queries: record %.40q has no query-time column", rec)
	}
	t, err := time.Parse(eventTimeLayout, string(col))
	if err != nil {
		return time.Time{}, fmt.Errorf("queries: query time: %w", err)
	}
	return t, nil
}

// FuzzEventTime holds EventTime to time.Parse: for every record the two
// agree on whether it has an event time, on the instant (Equal, the same
// UnixNano, the same time.Time value) and on the error text.
func FuzzEventTime(f *testing.F) {
	for _, col := range []string{
		"2006-03-01 00:00:01", // a dataset row
		"2006-12-31 23:59:59",
		"1999-01-01 00:00:00",
		"0000-01-01 00:00:00", // year zero parses
		"0000-00-00 00:00:00", // month and day zero do not
		"9999-12-31 23:59:59",
		"2004-02-29 12:00:00", // leap day
		"2000-02-29 12:00:00", // ... in a year divisible by 400
		"1900-02-29 12:00:00", // ... and in one divisible by 100 only
		"2006-02-29 12:00:00",
		"2006-02-30 12:00:00",
		"2006-04-31 12:00:00",
		"2006-13-01 12:00:00",
		"2006-03-01 24:00:00",
		"2006-03-01 23:60:00",
		"2006-03-01 23:59:60",
		"2006-03-01 7:04:05", // time.Parse takes a one-digit hour
		"2006-03-01 07:04:05.5",
		"2006-03-01 07:04:05,25",
		"2006-03-01 07:04:0",
		"2006-03-01 07:04:055",
		"2006-03-01T07:04:05",
		"2006/03/01 07:04:05",
		"2006-03-01 07-04-05",
		"2006-03-0a 07:04:05",
		"200６-03-01 07:04:05", // a full-width digit
		"２００６-03-01 07:04",
		"+006-03-01 07:04:05",
		"2006-03-01 07:04:05Z",
		" 2006-03-01 07:04:05",
		"not a time",
		"",
	} {
		f.Add([]byte("142\tweather\t" + col + "\t3\thttp://example.com"))
	}
	f.Add([]byte("142\tweather"))                      // no query-time column
	f.Add([]byte("142\tweather\t2006-03-01 00:00:01")) // ... and it as the last column
	f.Add([]byte("\t\t\t\t"))
	f.Add([]byte{})

	f.Fuzz(checkAgainstTimeParse)
}

// checkAgainstTimeParse is the fuzz property for one record.
func checkAgainstTimeParse(t *testing.T, rec []byte) {
	t.Helper()
	want, wantErr := referenceEventTime(rec)
	got, err := EventTime(rec)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("EventTime(%q) error = %v, time.Parse says %v", rec, err, wantErr)
	}
	if err != nil {
		if err.Error() != wantErr.Error() {
			t.Fatalf("EventTime(%q) error = %q, want %q", rec, err, wantErr)
		}
		return
	}
	if !got.Equal(want) || got.UnixNano() != want.UnixNano() || got != want {
		t.Fatalf("EventTime(%q) = %#v, time.Parse says %#v", rec, got, want)
	}
}

// TestEventTimeAgreesWithTimeParseOnEveryFieldValue walks every field
// through its range and one step beyond on both sides, in ordinary,
// leap and century years.
func TestEventTimeAgreesWithTimeParseOnEveryFieldValue(t *testing.T) {
	check := func(year, month, day, hour, minute, sec int) {
		checkAgainstTimeParse(t, fmt.Appendf(nil, "142\tweather\t%04d-%02d-%02d %02d:%02d:%02d\t3\turl",
			year, month, day, hour, minute, sec))
	}
	for _, year := range []int{0, 1, 1677, 1900, 1970, 2000, 2004, 2006, 2100, 2262, 9999} {
		for month := 0; month <= 13; month++ {
			for day := 0; day <= 32; day++ {
				check(year, month, day, 12, 30, 30)
			}
		}
	}
	for v := 0; v <= 61; v++ {
		check(2006, 3, 1, v, 0, 0)
		check(2006, 3, 1, 0, v, 0)
		check(2006, 3, 1, 0, 0, v)
	}
}

func TestEventTimeDoesNotAllocate(t *testing.T) {
	rec := []byte("142\tweather\t2006-03-01 00:00:01\t3\thttp://example.com")
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := EventTime(rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("EventTime allocates %.0f times per valid record, want 0", allocs)
	}
}

// TestJoinStateIdleFireDoesNotAllocate pins the watermark hook Flink
// runs per record: with nothing due, Fire (OnWatermark) allocates
// nothing — the pane callback was bound at construction — and does not
// touch the open windows.
func TestJoinStateIdleFireDoesNotAllocate(t *testing.T) {
	s := NewJoinState()
	rec := TagSideA([]byte("142\tweather\t2006-03-01 00:00:01\t3\thttp://example.com"))
	if err := s.Add(rec); err != nil {
		t.Fatal(err)
	}
	w := time.Date(2006, time.March, 1, 0, 0, 1, 0, time.UTC)
	emit := func([]byte) error { return fmt.Errorf("pane fired below the watermark") }
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.Fire(w, emit); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("idle JoinState.Fire allocates %.0f times, want 0", allocs)
	}
}

func BenchmarkEventTime(b *testing.B) {
	rec := []byte("142\tweather\t2006-03-01 00:00:01\t3\thttp://example.com")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EventTime(rec); err != nil {
			b.Fatal(err)
		}
	}
}
