package simcost

import (
	"math"
	"testing"
	"time"
)

func TestNilAndDisabledSimulatorChargesNothing(t *testing.T) {
	var nilSim *Simulator
	m := nilSim.NewMeter()
	m.Charge(time.Second)
	m.Flush()
	if got := m.Charged(); got != 0 {
		t.Errorf("nil simulator charged %v, want 0", got)
	}

	d := Disabled()
	md := d.NewMeter()
	md.Charge(time.Second)
	md.Flush()
	if got := md.Charged(); got != 0 {
		t.Errorf("disabled simulator charged %v, want 0", got)
	}
	if d.Multiplier() != 0 {
		t.Errorf("disabled multiplier = %v, want 0", d.Multiplier())
	}
}

func TestNilMeterIsSafe(t *testing.T) {
	var m *Meter
	m.Charge(time.Second) // must not panic
	m.Flush()
	if m.Charged() != 0 {
		t.Error("nil meter charged time")
	}
}

func TestMeterAccumulatesAndFlushes(t *testing.T) {
	s := New(1.0)
	m := s.NewMeter()
	start := time.Now()
	m.ChargeN(10*time.Microsecond, 100) // 1ms total
	m.Flush()
	elapsed := time.Since(start)
	if got := m.Charged(); got != time.Millisecond {
		t.Errorf("charged %v, want 1ms", got)
	}
	if elapsed < 900*time.Microsecond {
		t.Errorf("elapsed %v, want >= ~1ms", elapsed)
	}
}

func TestMeterMultiplierScalesCharges(t *testing.T) {
	s := New(2.0)
	m := s.NewMeter()
	m.Charge(time.Millisecond)
	m.Flush()
	if got := m.Charged(); got != 2*time.Millisecond {
		t.Errorf("charged %v, want 2ms", got)
	}
}

func TestChargeNNonPositive(t *testing.T) {
	s := New(1.0)
	m := s.NewMeter()
	m.ChargeN(time.Second, 0)
	m.ChargeN(time.Second, -5)
	m.Charge(-time.Second)
	m.Flush()
	if got := m.Charged(); got != 0 {
		t.Errorf("charged %v, want 0", got)
	}
}

// TestNoDrift makes 10^4 small charges on one meter. Every flush's
// timer overshoots its deadline, but the overshoot is credited against
// the next charge, so the wall time the meter realizes stays within
// one overshoot of the total charge instead of growing with the number
// of flushes.
func TestNoDrift(t *testing.T) {
	const (
		n      = 10_000
		charge = 10 * time.Microsecond
		// slack covers the loop's own work between flushes.
		slack = 2 * time.Millisecond
	)
	m := New(1.0).NewMeter()
	var maxOvershoot time.Duration
	start := time.Now()
	for range n {
		m.Charge(charge)
		maxOvershoot = max(maxOvershoot, -m.owed)
	}
	m.Flush()
	elapsed := time.Since(start)
	if got, want := m.Charged(), n*charge; got != want {
		t.Fatalf("charged %v, want %v", got, want)
	}
	drift := elapsed - m.Charged()
	t.Logf("realized %v for %v charged: drift %v, largest overshoot %v", elapsed, m.Charged(), drift, maxOvershoot)
	if drift < 0 {
		t.Errorf("realized %v, less than the %v charged", elapsed, m.Charged())
	}
	if drift > maxOvershoot+slack {
		t.Errorf("realized %v for %v charged: drift %v exceeds one timer overshoot (max %v) + %v",
			elapsed, m.Charged(), drift, maxOvershoot, slack)
	}
}

// TestChargeWithinCreditDoesNotWait: a flush whose charge the credit
// left by an earlier overshoot covers takes the charge from the credit
// and returns without waiting.
func TestChargeWithinCreditDoesNotWait(t *testing.T) {
	m := New(1.0).NewMeter()
	m.Charge(200 * time.Microsecond) // crosses the threshold: waits
	credit := -m.owed
	if credit <= 0 {
		t.Fatalf("credit after a wait = %v, want the timer's overshoot (> 0)", credit)
	}
	small := credit / 2
	m.Charge(small)
	m.Flush()
	if got, want := -m.owed, credit-small; got != want {
		t.Errorf("credit after a covered charge = %v, want %v (the charge taken from it, no wait)", got, want)
	}
	if got, want := m.Charged(), 200*time.Microsecond+small; got != want {
		t.Errorf("charged %v, want %v", got, want)
	}
}

func TestRunSeedDeterministicAndSensitive(t *testing.T) {
	a := RunSeed("flink", "grep", "native", "1", "0")
	b := RunSeed("flink", "grep", "native", "1", "0")
	if a != b {
		t.Error("RunSeed not deterministic")
	}
	c := RunSeed("flink", "grep", "native", "1", "1")
	if a == c {
		t.Error("RunSeed insensitive to run index")
	}
	// Part boundaries must matter: ("ab","c") != ("a","bc").
	if RunSeed("ab", "c") == RunSeed("a", "bc") {
		t.Error("RunSeed ignores part boundaries")
	}
}

func TestNoiseFactorDeterministic(t *testing.T) {
	p := DefaultNoise()
	if p.Factor(42) != p.Factor(42) {
		t.Error("noise factor not deterministic for equal seeds")
	}
}

func TestNoiseFactorDistribution(t *testing.T) {
	p := DefaultNoise()
	const n = 5000
	var (
		sum    float64
		spikes int
	)
	for i := range uint64(n) {
		f := p.Factor(i)
		if f < 0.5 || f > p.SpikeCap {
			t.Fatalf("factor %v outside [0.5, %v]", f, p.SpikeCap)
		}
		if f > 1.4 {
			spikes++
		}
		sum += f
	}
	mean := sum / n
	if mean < 0.95 || mean > 1.35 {
		t.Errorf("noise mean %v outside plausible range", mean)
	}
	spikeRate := float64(spikes) / n
	if spikeRate < 0.01 || spikeRate > 0.15 {
		t.Errorf("spike rate %v outside [0.01, 0.15]", spikeRate)
	}
}

func TestDefaultCostsArePositive(t *testing.T) {
	c := DefaultCosts()
	checks := map[string]time.Duration{
		"BrokerProduceBatch":     c.BrokerProduceBatch,
		"BrokerProducePerRecord": c.BrokerProducePerRecord,
		"BrokerFetchBatch":       c.BrokerFetchBatch,
		"BrokerFetchPerRecord":   c.BrokerFetchPerRecord,
		"NetworkHopPerRecord":    c.NetworkHopPerRecord,
		"CoderPerRecord":         c.CoderPerRecord,
		"BeamDoFnPerRecord":      c.BeamDoFnPerRecord,
		"SparkBatch":             c.SparkBatch,
		"SparkTaskLaunch":        c.SparkTaskLaunch,
		"BufferServerPublish":    c.BufferServerPublish,
		"BufferServerPerRecord":  c.BufferServerPerRecord,
		"ProducerSyncSend":       c.ProducerSyncSend,
		"YarnContainerStart":     c.YarnContainerStart,
		"EngineJobStart":         c.EngineJobStart,
		"Checkpoint":             c.Checkpoint,
	}
	for name, d := range checks {
		if d <= 0 {
			t.Errorf("DefaultCosts().%s = %v, want > 0", name, d)
		}
	}
	if ZeroCosts() != (Costs{}) {
		t.Error("ZeroCosts must be the zero value")
	}
}

func TestNoiseMeanCloseToOneWithoutSpikes(t *testing.T) {
	p := DefaultNoise()
	p.SpikeProb = 0
	const n = 4000
	var sum float64
	for i := range uint64(n) {
		sum += p.Factor(i + 1_000_000)
	}
	mean := sum / n
	if math.Abs(mean-1.0) > 0.05 {
		t.Errorf("spike-free noise mean %v, want ~1.0", mean)
	}
}
