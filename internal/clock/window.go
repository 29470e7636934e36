package clock

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"

	"odrips/internal/sim"
)

// Phase windows (DESIGN.md §12).
//
// An oscillator's edge grid is an exact rational phase read through
// integer observations: every reader divides (t-stableAt)*denom or
// k*1e21 and keeps only the quotient. Relative to an instant t0, the
// grid is fixed by two numbers, the epoch age t0-stableAt and the
// residue ((t0-stableAt)*denom) mod 1e21. A caller that needs to know
// which other phases would have produced the same observations brackets
// the span with BeginWindow/EndWindow. Every division made against the
// epoch live at t0 reports its remainder, and each remainder bounds how
// far the boundary residue may move before that quotient changes.
// Intersecting the bounds gives a half-open residue window. Every
// comparison of an instant with stableAt bounds the age the same way.
// Any phase inside the resulting Window yields the same integer answer
// to every observation made, in the same order.

// Residue is an unsigned 128-bit value. Phase residues are below 1e21,
// which needs 70 bits.
type Residue struct{ Hi, Lo uint64 }

// residueOf converts 0 <= n < 2^128.
func residueOf(n *big.Int) Residue {
	var b [16]byte
	n.FillBytes(b[:])
	return Residue{Hi: binary.BigEndian.Uint64(b[:8]), Lo: binary.BigEndian.Uint64(b[8:])}
}

// Less orders residues numerically.
func (r Residue) Less(s Residue) bool {
	return r.Hi < s.Hi || (r.Hi == s.Hi && r.Lo < s.Lo)
}

// add returns r+s (no overflow: residues stay far below 2^128).
func (r Residue) add(s Residue) Residue {
	lo, c := bits.Add64(r.Lo, s.Lo, 0)
	hi, _ := bits.Add64(r.Hi, s.Hi, c)
	return Residue{hi, lo}
}

// sub returns r-s for s <= r.
func (r Residue) sub(s Residue) Residue {
	lo, b := bits.Sub64(r.Lo, s.Lo, 0)
	hi, _ := bits.Sub64(r.Hi, s.Hi, b)
	return Residue{hi, lo}
}

// addMod returns (r+s) mod m for r, s < m.
func (r Residue) addMod(s, m Residue) Residue {
	sum := r.add(s)
	if !sum.Less(m) {
		sum = sum.sub(m)
	}
	return sum
}

// Phase is an oscillator's position relative to its epoch at an instant
// t: Age is t-stableAt (negative while the crystal is still
// stabilizing) and Res is (Age*denom) mod 1e21, non-negative. Two
// oscillators with equal tuning and equal phases at their respective
// instants have identical edge grids relative to those instants.
type Phase struct {
	Age sim.Duration
	Res Residue
}

// Window is a set of boundary phases, half-open in both coordinates,
// over which every observation of one recorded span has the same
// integer answer.
type Window struct {
	Lo, Hi       Residue
	AgeLo, AgeHi sim.Duration
}

// Holds reports whether ph lies inside the window.
func (w Window) Holds(ph Phase) bool {
	return w.AgeLo <= ph.Age && ph.Age < w.AgeHi && !ph.Res.Less(w.Lo) && ph.Res.Less(w.Hi)
}

var phaseModulus = residueOf(psPerSecondTimesBillion)

// phaseOf is the residue of age against denom.
func (o *Oscillator) phaseOf(age sim.Duration) Phase {
	if !o.denom.IsUint64() || age == math.MinInt64 {
		n := new(big.Int).SetInt64(int64(age))
		n.Mul(n, o.denom)
		n.Mod(n, psPerSecondTimesBillion) // Euclidean: non-negative
		return Phase{Age: age, Res: residueOf(n)}
	}
	a := uint64(age)
	if age < 0 {
		a = uint64(-age)
	}
	r := mulMod1e21(a, o.denom.Uint64())
	if age < 0 && r != (Residue{}) {
		r = phaseModulus.sub(r)
	}
	return Phase{Age: age, Res: r}
}

// mulMod1e21 returns a*b mod 1e21 for a < 2^63. With 1e21 = 2^21 * 5^21,
// the low 21 bits pass through and the rest reduces modulo 5^21 < 2^49
// in one 128/64 division (the shifted high word is below 2^42).
func mulMod1e21(a, b uint64) Residue {
	const shift, five21 = 21, 476837158203125
	hi, lo := bits.Mul64(a, b)
	low := lo & (1<<shift - 1)
	_, r := bits.Div64(hi>>shift, lo>>shift|hi<<(64-shift), five21)
	return Residue{Hi: r >> (64 - shift), Lo: r<<shift | low}
}

// PhaseAt returns the oscillator's phase at t.
func (o *Oscillator) PhaseAt(t sim.Time) Phase { return o.phaseOf(t.Sub(o.stableAt)) }

// PhaseAtAge returns the phase the current tuning has at the given epoch
// age, for predicting the boundary phase after a re-anchoring (the age
// at a later instant is then known without reading the epoch).
func (o *Oscillator) PhaseAtAge(age sim.Duration) Phase { return o.phaseOf(age) }

// Walk is the phase advance of one span of fixed length over a grid
// that is not re-anchored.
type Walk struct {
	d   sim.Duration
	adv Residue
}

// Walk returns the phase advance of a span of d under the current tuning.
func (o *Oscillator) Walk(d sim.Duration) Walk { return Walk{d: d, adv: o.phaseOf(d).Res} }

// Next returns the phase one span after ph.
func (w Walk) Next(ph Phase) Phase {
	return Phase{Age: ph.Age + w.d, Res: ph.Res.addMod(w.adv, phaseModulus)}
}

// window is a phase-window recording; active outside BeginWindow ..
// EndWindow is false.
type window struct {
	active bool
	epoch  uint64   // the epoch whose reads count
	t0     sim.Time // the boundary instant
	age    sim.Duration
	r0     Residue // boundary residue
	lo, hi Residue // residue window [lo, hi)
	ageLo  sim.Duration
	ageHi  sim.Duration // age window [ageLo, ageHi)
	rem    big.Int      // division scratch
}

// BeginWindow starts recording the phase window of the current instant.
// A previous unfinished recording is discarded.
func (o *Oscillator) BeginWindow() {
	now := o.sched.Now()
	ph := o.PhaseAt(now)
	w := &o.win
	w.active, w.epoch, w.t0, w.age, w.r0 = true, o.epoch, now, ph.Age, ph.Res
	w.lo, w.hi = Residue{}, phaseModulus
	w.ageLo, w.ageHi = math.MinInt64, math.MaxInt64
}

// EndWindow stops recording and returns the window. Without a recording
// in flight it returns the window of every phase.
func (o *Oscillator) EndWindow() Window {
	w := &o.win
	if !w.active {
		return Window{Hi: phaseModulus, AgeLo: math.MinInt64, AgeHi: math.MaxInt64}
	}
	w.active = false
	return Window{Lo: w.lo, Hi: w.hi, AgeLo: w.ageLo, AgeHi: w.ageHi}
}

// watching returns the recording the current epoch reports to.
func (o *Oscillator) watching() *window {
	if w := &o.win; w.active && w.epoch == o.epoch {
		return w
	}
	return nil
}

// newEpoch marks a change of stableAt or denom: later reads observe a
// grid the recorded span itself placed, so they no longer count.
func (o *Oscillator) newEpoch() { o.epoch++ }

// notBefore reports t >= stableAt, which at the boundary's phase reads
// age >= t0-t.
func (o *Oscillator) notBefore(t sim.Time) bool {
	ok := !t.Before(o.stableAt)
	if w := o.watching(); w != nil {
		w.ageBound(ok, w.t0.Sub(t))
	}
	return ok
}

// after reports t > stableAt, i.e. age >= t0-t+1.
func (o *Oscillator) after(t sim.Time) bool {
	ok := t.After(o.stableAt)
	if w := o.watching(); w != nil {
		w.ageBound(ok, w.t0.Sub(t)+1)
	}
	return ok
}

// ageBound records age >= b (ge) or age < b (!ge).
func (w *window) ageBound(ge bool, b sim.Duration) {
	if ge {
		w.ageLo = max(w.ageLo, b)
	} else {
		w.ageHi = min(w.ageHi, b)
	}
}

// pin records an answer that depends on the epoch's exact age.
func (w *window) pin() {
	w.ageBound(true, w.age)
	w.ageBound(false, w.age+1)
}

// atLeast records residue >= r; below records residue < r.
func (w *window) atLeast(r Residue) {
	if w.lo.Less(r) {
		w.lo = r
	}
}

func (w *window) below(r Residue) {
	if r.Less(w.hi) {
		w.hi = r
	}
}

// gridQuo sets x to floor(x/1e21) for x = (t-stableAt)*denom (less a
// constant). x rises one-for-one with the boundary residue r0, so with
// remainder rem the quotient holds while the residue stays in
// [r0-rem, r0-rem+1e21); within [0, 1e21) that bounds it from below when
// rem <= r0 and from above otherwise.
func (o *Oscillator) gridQuo(x *big.Int) {
	w := o.watching()
	if w == nil {
		x.Quo(x, psPerSecondTimesBillion)
		return
	}
	x.QuoRem(x, psPerSecondTimesBillion, &w.rem)
	rem := residueOf(&w.rem)
	if rem.Less(w.r0) || rem == w.r0 {
		w.atLeast(w.r0.sub(rem))
	} else {
		w.below(phaseModulus.sub(rem.sub(w.r0)))
	}
}

// edgeQuo sets x to floor(x/denom) for x = k*1e21. Taken relative to the
// boundary, the numerator is k*1e21 - (t0-stableAt)*denom, which falls
// one-for-one as the residue rises, so with remainder rem the quotient
// holds while the residue stays in (r0+rem-denom, r0+rem].
func (o *Oscillator) edgeQuo(x *big.Int) {
	w := o.watching()
	if w == nil {
		x.Quo(x, o.denom)
		return
	}
	x.QuoRem(x, o.denom, &w.rem)
	hi := w.r0.add(residueOf(&w.rem)).add(Residue{Lo: 1})
	w.below(hi)
	if d := residueOf(o.denom); !hi.Less(d) {
		w.atLeast(hi.sub(d))
	}
}
