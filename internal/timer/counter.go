// Package timer implements the platform timekeeping hardware of paper §4:
// the processor main timer (TSC), the chipset fast timer (24 MHz), the
// chipset slow timer (32.768 kHz with a fixed-point Step), the run-time Step
// calibration, and the fast↔slow switch protocol of Fig. 3.
package timer

import (
	"fmt"

	"odrips/internal/clock"
	"odrips/internal/fixedpoint"
	"odrips/internal/sim"
)

// FastCounter is a 64-bit counter incremented by one on every rising edge
// of its clock domain (the processor main timer and the chipset fast timer
// are both FastCounters). The counter is materialized lazily: reads compute
// the edge count since the last load instead of simulating every cycle.
type FastCounter struct {
	name    string
	dom     *clock.Domain
	sched   *sim.Scheduler
	base    uint64
	anchor  sim.Time
	running bool
}

// NewFastCounter creates a stopped counter with value 0.
func NewFastCounter(sched *sim.Scheduler, name string, dom *clock.Domain) *FastCounter {
	return &FastCounter{name: name, dom: dom, sched: sched}
}

// Running reports whether the counter is counting.
func (c *FastCounter) Running() bool { return c.running }

// Set loads a value at the current instant and starts counting. Edges
// strictly after now increment the counter. The clock domain must be
// running, otherwise the load is rejected: hardware cannot latch a value
// into an unclocked register.
func (c *FastCounter) Set(v uint64) error {
	if !c.dom.Running() {
		return fmt.Errorf("timer: %s: load with clock domain %s not running", c.name, c.dom.Name())
	}
	c.base = v
	c.anchor = c.sched.Now()
	c.running = true
	return nil
}

// Read returns the current value. Reading a stopped counter returns the
// frozen value. The clock domain must not have been gated while running;
// the switch protocol guarantees Stop is called before gating.
func (c *FastCounter) Read() uint64 {
	if !c.running {
		return c.base
	}
	return c.base + c.dom.Source().EdgesBetween(c.anchor, c.sched.Now())
}

// Stop freezes the counter at its current value.
func (c *FastCounter) Stop() {
	if !c.running {
		return
	}
	c.base = c.Read()
	c.running = false
}

// ReplaySnapshot exports the raw latch state (base value, load anchor,
// running flag) for the platform fast-forward engine, which records a
// cycle's effect on the counter as deltas against this snapshot.
func (c *FastCounter) ReplaySnapshot() (base uint64, anchor sim.Time, running bool) {
	return c.base, c.anchor, c.running
}

// ReplayRestore installs latch state computed by the fast-forward engine
// for a replayed window, bypassing the clock-domain-running check that
// guards Set: the replay reproduces a state that a real Set (with the
// domain running at the time) already produced once.
func (c *FastCounter) ReplayRestore(base uint64, anchor sim.Time, running bool) {
	c.base = base
	c.anchor = anchor
	c.running = running
}

// TimeOfValue returns the instant at which the counter reaches target
// (first instant Read() >= target). ok is false when the counter is
// stopped, its clock is not running, or the target is unreachable.
func (c *FastCounter) TimeOfValue(target uint64) (sim.Time, bool) {
	if !c.running || !c.dom.Running() {
		return 0, false
	}
	now := c.sched.Now()
	cur := c.Read()
	if target <= cur {
		return now, true
	}
	delta := target - cur
	// Find the edge index for "now" position, then step delta edges ahead.
	k, at, ok := c.dom.NextEdge(now)
	if !ok {
		return 0, false
	}
	// If the next edge is exactly now, it was already counted by Read's
	// half-open interval only when strictly after anchor; EdgesBetween uses
	// (anchor, now], so an edge at now is included in cur. Start from the
	// edge after now in that case.
	if at == now {
		k++
	}
	return c.dom.Source().EdgeTime(k + delta - 1), true
}

// SlowCounter is the chipset slow timer: a (64+f)-bit accumulator advanced
// by the fixed-point Step on every rising edge of the 32.768 kHz clock
// (paper §4.1.2). Like FastCounter it is materialized lazily via AddN.
type SlowCounter struct {
	name    string
	osc     *clock.Oscillator
	sched   *sim.Scheduler
	acc     *fixedpoint.Acc
	step    fixedpoint.Q
	anchor  sim.Time
	running bool
}

// NewSlowCounter creates a stopped slow counter with the given Step.
func NewSlowCounter(sched *sim.Scheduler, name string, osc *clock.Oscillator, step fixedpoint.Q) *SlowCounter {
	return &SlowCounter{
		name:  name,
		osc:   osc,
		sched: sched,
		acc:   fixedpoint.NewAcc(step.FracBits),
		step:  step,
	}
}

// Load copies v into the integer part (fraction cleared — the hardware
// copies the fast timer into the upper 64 bits) and starts stepping on
// edges strictly after now. The protocol calls Load exactly at a 32 kHz
// rising edge, so the first increment lands one slow period later.
func (c *SlowCounter) Load(v uint64) error {
	if !c.osc.Stable() {
		return fmt.Errorf("timer: %s: load with oscillator %s unstable", c.name, c.osc.Name())
	}
	c.acc.SetInt(v)
	c.anchor = c.sched.Now()
	c.running = true
	return nil
}

// advance materializes steps up to now.
func (c *SlowCounter) advance() {
	if !c.running {
		return
	}
	now := c.sched.Now()
	n := c.osc.EdgesBetween(c.anchor, now)
	if n > 0 {
		c.acc.AddN(c.step, n)
	}
	c.anchor = now
}

// Read returns the integer part (the architectural 64-bit timer value).
func (c *SlowCounter) Read() uint64 {
	c.advance()
	return c.acc.Floor()
}

// Stop freezes the counter.
func (c *SlowCounter) Stop() {
	c.advance()
	c.running = false
}

// TimeOfValue returns the first instant at which Read() >= target.
// ok is false if the counter is stopped or the step is zero.
func (c *SlowCounter) TimeOfValue(target uint64) (sim.Time, bool) {
	if !c.running {
		return 0, false
	}
	if c.step.Raw == 0 {
		return 0, false
	}
	c.advance()
	if target <= c.acc.Floor() {
		return c.sched.Now(), true
	}
	n, err := stepsToReach(c.acc, c.step, target)
	if err != nil {
		return 0, false
	}
	// The n-th edge strictly after anchor. Edges are counted half-open
	// (anchor, t], so we need the edge with index anchorIndex + n.
	k, at, ok := c.osc.NextEdge(c.anchor)
	if !ok {
		return 0, false
	}
	if at == c.anchor {
		k++ // edge exactly at anchor is already accumulated
	}
	return c.osc.EdgeTime(k + n - 1), true
}
