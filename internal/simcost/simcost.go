// Package simcost models the latencies a physical streaming cluster pays
// but an in-process simulator does not: network hops between tasks,
// serialization to the wire, broker round trips, and task scheduling.
//
// The engines in this repository execute real query code over real bytes;
// simcost adds calibrated time charges at the places where the systems in
// Hesse et al. (ICDCS 2019) pay for I/O and coordination. The *mechanism*
// differences between the native engines and the Apache-Beam-style runners
// (batched vs. per-tuple emission, chained vs. per-operator hops) combined
// with these charges reproduce the relative results of the paper.
//
// Charges are accumulated per goroutine in a Meter and realized as a
// busy-wait (small amounts) or sleep+spin (large amounts), so the measured
// wall-clock execution times behave like real processing time.
package simcost

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
	"time"
)

const (
	// _flushThreshold is the amount of accrued charge at which a Meter
	// converts the accrual into real elapsed time. Small enough to keep
	// time flowing smoothly, large enough that the accounting overhead
	// is negligible next to the charge itself.
	_flushThreshold = 100 * time.Microsecond

	// _sleepCutover is the charge size above which the Meter sleeps for
	// the bulk of the duration instead of spinning, to avoid burning a
	// core for milliseconds at a time.
	_sleepCutover = 2 * time.Millisecond

	// _sleepSlack is the tail of a large charge that is spun rather than
	// slept, compensating for the OS timer granularity.
	_sleepSlack = 250 * time.Microsecond
)

// Simulator applies time charges scaled by a per-run noise multiplier.
// A nil *Simulator is valid and charges nothing, so unit tests that do
// not care about timing can pass nil throughout.
type Simulator struct {
	multiplier float64
	disabled   bool
}

// New returns a Simulator that realizes charges scaled by multiplier.
// A multiplier of 1.0 charges the calibrated durations exactly.
func New(multiplier float64) *Simulator {
	return &Simulator{multiplier: multiplier}
}

// Disabled returns a Simulator that ignores all charges. Useful for
// functional tests where wall-clock time is irrelevant.
func Disabled() *Simulator {
	return &Simulator{disabled: true}
}

// Multiplier reports the configured noise multiplier (0 when disabled).
func (s *Simulator) Multiplier() float64 {
	if s == nil || s.disabled {
		return 0
	}
	return s.multiplier
}

// NewMeter returns a fresh accumulator for one goroutine. Meters are not
// safe for concurrent use; every task/operator goroutine owns its own.
func (s *Simulator) NewMeter() *Meter {
	return &Meter{sim: s}
}

// Meter accrues charges for a single goroutine and converts them into
// elapsed time once they cross a flush threshold.
type Meter struct {
	sim     *Simulator
	accrued time.Duration
	charged time.Duration
}

// Charge accrues a single charge of duration d.
func (m *Meter) Charge(d time.Duration) {
	if m == nil || m.sim == nil || m.sim.disabled || d <= 0 {
		return
	}
	m.accrued += time.Duration(float64(d) * m.sim.multiplier)
	if m.accrued >= _flushThreshold {
		m.Flush()
	}
}

// ChargeN accrues n identical charges of duration d (amortized batch APIs).
func (m *Meter) ChargeN(d time.Duration, n int) {
	if n <= 0 {
		return
	}
	m.Charge(time.Duration(int64(d) * int64(n)))
}

// Flush realizes any accrued charge as elapsed time immediately.
func (m *Meter) Flush() {
	if m == nil || m.accrued <= 0 {
		return
	}
	d := m.accrued
	m.accrued = 0
	m.charged += d
	elapse(d)
}

// Charged reports the total time this meter has realized, for tests.
func (m *Meter) Charged() time.Duration {
	if m == nil {
		return 0
	}
	return m.charged
}

// elapse makes d of wall-clock time pass: sleep for the bulk of large
// durations, busy-wait for precision on the remainder.
func elapse(d time.Duration) {
	if d <= 0 {
		return
	}
	if d >= _sleepCutover {
		time.Sleep(d - _sleepSlack)
	}
	deadline := time.Now().Add(remainderAfterSleep(d))
	for time.Now().Before(deadline) {
		// spin
	}
}

// remainderAfterSleep returns how much of d should be spun after the
// sleeping portion of elapse has completed.
func remainderAfterSleep(d time.Duration) time.Duration {
	if d >= _sleepCutover {
		return _sleepSlack
	}
	return d
}

// RunSeed derives a deterministic 64-bit seed from the identifying parts
// of a benchmark run (system, query, SDK kind, parallelism, run index...).
func RunSeed(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		_, _ = h.Write([]byte(p))
		_, _ = h.Write([]byte{0})
	}
	return h.Sum64()
}

// NoiseParams controls the run-to-run noise process. The defaults
// reproduce the relative standard deviations of Figure 10 and the
// heavy-tailed outliers of Table III in the paper.
type NoiseParams struct {
	// Sigma is the log-stddev of the lognormal body.
	Sigma float64
	// SpikeProb is the probability that a run suffers an environmental
	// spike (JIT warmup, GC pause, noisy neighbour in the paper's VMs).
	SpikeProb float64
	// SpikeScale scales the exponential tail of a spike.
	SpikeScale float64
	// SpikeCap bounds the total multiplier.
	SpikeCap float64
}

// DefaultNoise returns the calibrated noise parameters.
func DefaultNoise() NoiseParams {
	return NoiseParams{
		Sigma:      0.05,
		SpikeProb:  0.07,
		SpikeScale: 1.1,
		SpikeCap:   7.0,
	}
}

// Factor draws the noise multiplier for the run identified by seed:
// a lognormal body with a rare additive heavy-tail spike.
func (p NoiseParams) Factor(seed uint64) float64 {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	f := math.Exp(p.Sigma * rng.NormFloat64())
	if rng.Float64() < p.SpikeProb {
		f *= 1.5 + p.SpikeScale*rng.ExpFloat64()
	}
	if f > p.SpikeCap {
		f = p.SpikeCap
	}
	if f < 0.5 {
		f = 0.5
	}
	return f
}
