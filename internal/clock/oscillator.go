// Package clock models the platform clock sources: board crystal
// oscillators (the 24 MHz fast crystal and the 32.768 kHz real-time-clock
// crystal of the paper's Fig. 1(a)) and gateable clock domains derived from
// them.
//
// Edge arithmetic is exact. An oscillator's true frequency is
// nominal*(1+ppb/1e9) Hz, so the k-th rising edge after stabilization falls
// at phase + floor(k * 1e21 / (nominal*(1e9+ppb))) picoseconds. The division
// is done in big.Int so that multi-hour simulations (used by the 1 ppb
// timer-drift property tests) accumulate no floating-point error.
package clock

import (
	"fmt"
	"math/big"

	"odrips/internal/sim"
)

// psPerSecondTimesBillion is 1e12 ps/s * 1e9 (the ppb scale), i.e. the exact
// numerator of the period rational.
var psPerSecondTimesBillion = new(big.Int).Mul(big.NewInt(1e12), big.NewInt(1e9))

var bigOne = big.NewInt(1)

// Oscillator is a crystal oscillator. The zero value is not usable; use
// NewOscillator. Oscillators start powered off.
type Oscillator struct {
	name      string
	nominalHz uint64
	ppb       int64        // true frequency error in parts per billion
	startup   sim.Duration // stabilization latency after power-on
	sched     *sim.Scheduler

	on       bool
	stableAt sim.Time // epoch of edge 0 for the current power-on period
	denom    *big.Int // nominalHz * (1e9 + ppb)

	// epoch counts changes of stableAt or denom; win is the phase window
	// being recorded (window.go), nil outside one. Neither is read by any
	// observation of the grid.
	epoch uint64
	win   window

	// OnPower, if non-nil, is invoked whenever the oscillator is switched
	// on or off. The platform uses it to charge oscillator power.
	OnPower func(on bool)
}

// NewOscillator creates an oscillator. ppb is the crystal's frequency error
// in parts per billion (positive runs fast). startup is the stabilization
// latency from power-on until the first usable edge.
func NewOscillator(sched *sim.Scheduler, name string, nominalHz uint64, ppb int64, startup sim.Duration) *Oscillator {
	if nominalHz == 0 {
		panic("clock: oscillator with zero nominal frequency")
	}
	if ppb <= -1e9 {
		panic(fmt.Sprintf("clock: oscillator %s ppb %d implies non-positive frequency", name, ppb))
	}
	o := &Oscillator{
		name:      name,
		nominalHz: nominalHz,
		ppb:       ppb,
		startup:   startup,
		sched:     sched,
	}
	o.denom = new(big.Int).Mul(
		new(big.Int).SetUint64(nominalHz),
		big.NewInt(1_000_000_000+ppb),
	)
	return o
}

// Name returns the oscillator's label.
func (o *Oscillator) Name() string { return o.name }

// NominalHz returns the nominal frequency in Hz.
func (o *Oscillator) NominalHz() uint64 { return o.nominalHz }

// PPB returns the crystal frequency error in parts per billion.
func (o *Oscillator) PPB() int64 { return o.ppb }

// ActualHz returns the true frequency in Hz.
func (o *Oscillator) ActualHz() float64 {
	return float64(o.nominalHz) * (1 + float64(o.ppb)/1e9)
}

// On reports whether the oscillator is powered.
func (o *Oscillator) On() bool { return o.on }

// Stable reports whether the oscillator is powered and past its
// stabilization latency at the current instant.
func (o *Oscillator) Stable() bool {
	return o.on && o.notBefore(o.sched.Now())
}

// Epoch identifies the current edge grid: it changes whenever power-on,
// a retune or a replay rebase moves the grid, and says nothing about
// where the grid lies.
func (o *Oscillator) Epoch() uint64 { return o.epoch }

// EpochOffset returns the current grid's anchor (edge 0) relative to t.
// Read against a grid a phase window is recording, the answer depends on
// the exact epoch age, so the window pins it.
func (o *Oscillator) EpochOffset(t sim.Time) sim.Duration {
	if w := o.watching(); w != nil {
		w.pin()
	}
	return o.stableAt.Sub(t)
}

// PowerOn enables the oscillator. Edges restart: the crystal loses phase
// across a power cycle, so edge 0 of the new period is at now+startup.
// Powering an already-on oscillator is a no-op.
func (o *Oscillator) PowerOn() {
	if o.on {
		return
	}
	o.on = true
	o.stableAt = o.sched.Now().Add(o.startup)
	o.newEpoch()
	if o.OnPower != nil {
		o.OnPower(true)
	}
}

// PowerOff disables the oscillator. Idempotent.
func (o *Oscillator) PowerOff() {
	if !o.on {
		return
	}
	o.on = false
	if o.OnPower != nil {
		o.OnPower(false)
	}
}

// Retune changes the crystal's frequency error from the current instant
// onward (temperature drift, aging). Edge continuity is preserved: the
// most recent rising edge becomes edge 0 of the retuned timebase, so the
// next edge falls one new-period later. Consumers that count edges
// lazily (timer counters) must materialize their state immediately before
// a retune; edges spanning the retune boundary are otherwise misattributed
// to the new frequency.
func (o *Oscillator) Retune(ppb int64) {
	if ppb <= -1e9 {
		panic(fmt.Sprintf("clock: oscillator %s retune ppb %d implies non-positive frequency", o.name, ppb))
	}
	anchored := false
	if o.on && o.Stable() {
		// Re-anchor at the most recent edge at or before now.
		now := o.sched.Now()
		k, at, ok := o.NextEdge(now)
		if ok {
			if at.After(now) && k > 0 {
				at = o.EdgeTime(k - 1)
			}
			o.stableAt = at
			anchored = true
		}
	}
	if w := o.watching(); w != nil && !anchored {
		// The retuned grid keeps the old anchor: everything read from
		// it depends on the exact epoch age.
		w.pin()
	}
	o.newEpoch()
	o.ppb = ppb
	o.denom = new(big.Int).Mul(
		new(big.Int).SetUint64(o.nominalHz),
		big.NewInt(1_000_000_000+ppb),
	)
}

// EdgeTime returns the instant of rising edge k (k=0 at stabilization) of
// the current power-on period. Callers derive k from NextEdge: a phase
// window (window.go) records the answer as a function of the grid's
// residue for that index, while an index from anywhere else would
// observe the epoch's exact age.
func (o *Oscillator) EdgeTime(k uint64) sim.Time {
	// offset = floor(k * 1e21 / denom)
	n := new(big.Int).SetUint64(k)
	n.Mul(n, psPerSecondTimesBillion)
	o.edgeQuo(n)
	if !n.IsInt64() {
		panic(fmt.Sprintf("clock: edge %d of %s overflows sim time", k, o.name))
	}
	return o.stableAt.Add(sim.Duration(n.Int64()))
}

// NextEdge returns the index and instant of the first rising edge at or
// after t. ok is false if the oscillator is off, or if t precedes
// stabilization and the oscillator will never produce an edge before it is
// reconfigured — in that case the first stable edge (index 0) is returned
// with ok=true when t <= stableAt.
func (o *Oscillator) NextEdge(t sim.Time) (k uint64, at sim.Time, ok bool) {
	if !o.on {
		return 0, 0, false
	}
	if !o.after(t) {
		if w := o.watching(); w != nil {
			w.pin() // the answer is the anchor itself
		}
		return 0, o.stableAt, true
	}
	// k = ceil((t-stableAt) * denom / 1e21) = floor((x-1)/1e21) + 1 for x > 0
	d := new(big.Int).SetInt64(int64(t.Sub(o.stableAt)))
	d.Mul(d, o.denom)
	d.Sub(d, bigOne)
	o.gridQuo(d)
	d.Add(d, bigOne)
	if !d.IsUint64() {
		return 0, 0, false
	}
	k = d.Uint64()
	return k, o.EdgeTime(k), true
}

// EdgesBetween returns the number of rising edges in the half-open interval
// (t1, t2] for the current power-on period. Both instants must not precede
// stabilization.
func (o *Oscillator) EdgesBetween(t1, t2 sim.Time) uint64 {
	if t2.Before(t1) {
		panic("clock: EdgesBetween with t2 < t1")
	}
	return o.edgesUpTo(t2) - o.edgesUpTo(t1)
}

// edgesUpTo counts edges with EdgeTime <= t (edge 0 included when stable).
func (o *Oscillator) edgesUpTo(t sim.Time) uint64 {
	if !o.notBefore(t) {
		if w := o.watching(); w != nil {
			// Against this absolute zero, the count at a later instant
			// is absolute too: it reveals the epoch's exact age.
			w.pin()
		}
		return 0
	}
	// count = floor((t-stableAt) * denom / 1e21) + 1  (edge 0 at stableAt)
	d := new(big.Int).SetInt64(int64(t.Sub(o.stableAt)))
	d.Mul(d, o.denom)
	o.gridQuo(d)
	return d.Uint64() + 1
}

// ReplayRebase re-anchors the edge grid at stableAt, for whole-cycle
// replays where the power cycling that would have re-derived the anchor
// was skipped. The caller guarantees the rebased grid is the one the
// skipped cycles would have produced.
func (o *Oscillator) ReplayRebase(stableAt sim.Time) {
	o.stableAt = stableAt
	o.newEpoch()
}

// ScheduleEdge schedules fn at the first rising edge at or after the
// current instant and returns the event, or an invalid (zero) event if the
// oscillator is off. This is how firmware flows "wait for the rising edge"
// of a clock (paper Fig. 3(b)).
func (o *Oscillator) ScheduleEdge(name string, fn func()) sim.Event {
	_, at, ok := o.NextEdge(o.sched.Now())
	if !ok {
		return sim.Event{}
	}
	return o.sched.At(at, name, fn)
}
