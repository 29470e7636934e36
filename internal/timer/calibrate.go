package timer

import (
	"fmt"

	"odrips/internal/clock"
	"odrips/internal/fixedpoint"
	"odrips/internal/sim"
)

// CalibrationResult holds the outcome of a Step calibration run (§4.1.3).
type CalibrationResult struct {
	Step     fixedpoint.Q
	NFast    uint64       // fast-clock edges counted
	NSlow    uint64       // slow-clock window, 2^f cycles
	Window   sim.Duration // wall (simulated) duration of the calibration
	IntBits  uint         // m
	FracBits uint         // f
}

// DriftPPB returns the worst-case counting drift, in parts per billion,
// implied by quantizing the measured ratio to f fractional bits: the Step
// underestimates the true ratio by less than 2^-f per slow cycle, which is
// (2^-f / ratio) per fast cycle.
func (r CalibrationResult) DriftPPB() float64 {
	// ratio * 2^f is exactly Step.Raw, so the bound needs no float rendering
	// of the Step itself.
	if r.Step.Raw == 0 {
		return 0
	}
	return 1e9 / float64(r.Step.Raw)
}

// PlanCalibration derives the fixed-point geometry for a fast/slow clock
// pair per the paper's Equations 2–4: m integer bits to hold the frequency
// ratio, f fractional bits for 1 ppb precision, and the calibration window
// N_slow = 2^f slow cycles.
func PlanCalibration(fastHz, slowHz uint64) (intBits, fracBits uint, window uint64) {
	m := fixedpoint.IntBitsNeeded(fastHz, slowHz)
	f := fixedpoint.FracBitsNeeded(fastHz, slowHz)
	return m, f, 1 << f
}

// CalibrateNow measures the Step immediately by counting fast edges across
// the next N_slow = 2^f slow cycles, using the oscillators' exact edge
// arithmetic. It is the zero-latency variant used by tests and by platform
// bring-up when the simulation has no interest in the 64-second calibration
// wall time. Both oscillators must be stable.
func CalibrateNow(sched *sim.Scheduler, fast, slow *clock.Oscillator) (CalibrationResult, error) {
	if !fast.Stable() || !slow.Stable() {
		return CalibrationResult{}, fmt.Errorf("timer: calibration requires both oscillators stable")
	}
	m, f, nSlow := PlanCalibration(fast.NominalHz(), slow.NominalHz())
	k0, t0, ok := slow.NextEdge(sched.Now())
	if !ok {
		return CalibrationResult{}, fmt.Errorf("timer: slow oscillator produced no edge")
	}
	tEnd := slow.EdgeTime(k0 + nSlow)
	nFast := fast.EdgesBetween(t0, tEnd)
	// Divide nFast by 2^f by placing the fixed point: raw = nFast.
	if nFast>>(m+f) != 0 {
		return CalibrationResult{}, fmt.Errorf("timer: measured ratio overflows %d+%d bits (N_fast=%d)", m, f, nFast)
	}
	return CalibrationResult{
		Step:     fixedpoint.New(nFast, f),
		NFast:    nFast,
		NSlow:    nSlow,
		Window:   tEnd.Sub(t0),
		IntBits:  m,
		FracBits: f,
	}, nil
}

// Calibrator runs a calibration with its real wall duration: it schedules
// the window end on the simulation clock and reports the result through a
// callback. The paper notes this runs once after each platform reset.
type Calibrator struct {
	sched *sim.Scheduler
	fast  *clock.Oscillator
	slow  *clock.Oscillator

	busy bool
}

// NewCalibrator builds an idle calibrator.
func NewCalibrator(sched *sim.Scheduler, fast, slow *clock.Oscillator) *Calibrator {
	return &Calibrator{sched: sched, fast: fast, slow: slow}
}

// Start begins a calibration; done is invoked at window end with the
// result. Returns an error if already busy or oscillators are unstable.
func (c *Calibrator) Start(done func(CalibrationResult)) error {
	if c.busy {
		return fmt.Errorf("timer: calibration already in flight")
	}
	if !c.fast.Stable() || !c.slow.Stable() {
		return fmt.Errorf("timer: calibration requires both oscillators stable")
	}
	_, f, nSlow := PlanCalibration(c.fast.NominalHz(), c.slow.NominalHz())
	k0, t0, ok := c.slow.NextEdge(c.sched.Now())
	if !ok {
		return fmt.Errorf("timer: slow oscillator produced no edge")
	}
	tEnd := c.slow.EdgeTime(k0 + nSlow)
	c.busy = true
	c.sched.At(tEnd, "timer.calibration.done", func() {
		nFast := c.fast.EdgesBetween(t0, tEnd)
		m := fixedpoint.IntBitsNeeded(c.fast.NominalHz(), c.slow.NominalHz())
		res := CalibrationResult{
			Step:     fixedpoint.New(nFast, f),
			NFast:    nFast,
			NSlow:    nSlow,
			Window:   tEnd.Sub(t0),
			IntBits:  m,
			FracBits: f,
		}
		c.busy = false
		done(res)
	})
	return nil
}
