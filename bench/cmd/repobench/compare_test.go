package main

import "testing"

func oneMetric(share float64, value float64, reps ...float64) *report {
	return &report{Workloads: []workloadReport{{
		Workload: "calibrated", FailedShare: share,
		EndToEnd: []metricValue{{Name: "beam_ns_per_record", Unit: "ns", Value: value, Bound: 0.10, Reps: reps}},
	}}}
}

func TestCompareReports(t *testing.T) {
	tight := []float64{99, 100, 100, 100, 101}
	cases := []struct {
		name   string
		a, b   *report
		status string
		ok     bool
	}{
		{"unchanged", oneMetric(0, 100, tight...), oneMetric(0, 101, tight...), statusOK, true},
		{"better", oneMetric(0, 100, tight...), oneMetric(0, 70, 69, 70, 71), statusOK, true},
		{"worse past the bound", oneMetric(0, 100, tight...), oneMetric(0, 111, 110, 111, 112), statusWorse, false},
		{"just inside the bound", oneMetric(0, 100, tight...), oneMetric(0, 109, 108, 109, 110), statusOK, true},
		{"spread wider than the bound", oneMetric(0, 100, 80, 90, 100, 110, 120), oneMetric(0, 104, tight...), statusUnresolved, true},
		{"wide spread but every rep better", oneMetric(0, 100, 80, 90, 100, 110, 120), oneMetric(0, 75, 70, 75, 79), statusOK, true},
		{"failed share rose", oneMetric(0, 100, tight...), oneMetric(0.1, 100, tight...), statusOK, false},
		{"metric missing", oneMetric(0, 100, tight...), &report{Workloads: []workloadReport{{Workload: "calibrated"}}}, statusMissing, false},
		{"workload missing", oneMetric(0, 100, tight...), &report{}, "", false},
	}
	for _, tc := range cases {
		verdicts, _, ok := compareReports(tc.a, tc.b)
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v", tc.name, ok, tc.ok)
		}
		if tc.status == "" {
			continue
		}
		if len(verdicts) != 1 || verdicts[0].Status != tc.status {
			t.Errorf("%s: verdicts = %+v, want one with status %q", tc.name, verdicts, tc.status)
		}
	}
}
