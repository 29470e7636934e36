// Package aonio models the processor's always-on IO ring (Fig. 1(a) item 4
// and §5): the differential 24 MHz clock buffers, the two PML interfaces,
// thermal reporting, voltage-regulator serial control, and the
// reset/debug pads. In baseline DRIPS these stay powered; ODRIPS gates the
// whole rail through a board FET controlled by a chipset GPIO.
package aonio

import (
	"fmt"
	"sort"
)

// Standard IO names on the ring.
const (
	IOClk24Buffers   = "clk24-buffers"
	IOPMLToChipset   = "pml-to-chipset"
	IOPMLFromChipset = "pml-from-chipset"
	IOThermal        = "thermal-report"
	IOVRSerial       = "vr-serial"
	IOReset          = "reset"
	IODebug          = "debug"
)

// StandardIOs returns the paper's AON IO inventory (§5.2) with nominal
// draws in mW that sum to the AON IO budget of the DRIPS power breakdown.
func StandardIOs() map[string]float64 {
	return map[string]float64{
		IOClk24Buffers:   1.05,
		IOPMLToChipset:   0.45,
		IOPMLFromChipset: 0.45,
		IOThermal:        0.35,
		IOVRSerial:       0.30,
		IOReset:          0.20,
		IODebug:          0.31,
	}
}

// Ring is the AON IO rail: a set of pads that live or die together behind
// the FET.
type Ring struct {
	draws map[string]float64
	gated bool

	// OnDraw, if non-nil, receives the total nominal rail draw in mW when
	// the gate state changes.
	OnDraw func(mW float64)
}

// NewRing builds a ring from a name→draw map. The ring starts ungated.
func NewRing(draws map[string]float64) *Ring {
	if len(draws) == 0 {
		panic("aonio: empty ring")
	}
	cp := make(map[string]float64, len(draws))
	for name, mw := range draws {
		if mw < 0 {
			panic(fmt.Sprintf("aonio: negative draw for %s", name))
		}
		cp[name] = mw
	}
	return &Ring{draws: cp}
}

// Names returns the pad names, sorted.
func (r *Ring) Names() []string {
	out := make([]string, 0, len(r.draws))
	for n := range r.draws {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Gated reports whether the FET has cut the rail.
func (r *Ring) Gated() bool { return r.gated }

// Usable reports whether a named pad is powered and present.
func (r *Ring) Usable(name string) bool {
	_, ok := r.draws[name]
	return ok && !r.gated
}

// TotalDrawMW returns the rail's current nominal draw. Summation runs in
// sorted-name order so the floating-point result is identical across runs
// (map iteration order would otherwise leak ulp-level nondeterminism into
// the energy accounting).
func (r *Ring) TotalDrawMW() float64 {
	if r.gated {
		return 0
	}
	return r.loadMW()
}

func (r *Ring) loadMW() float64 {
	var t float64
	for _, name := range r.Names() {
		t += r.draws[name]
	}
	return t
}

// SetGated switches the FET. Idempotent transitions do not call OnDraw.
func (r *Ring) SetGated(gated bool) {
	if r.gated == gated {
		return
	}
	r.gated = gated
	if r.OnDraw != nil {
		r.OnDraw(r.TotalDrawMW())
	}
}

// FET is the on-board field-effect transistor of §5.1 that gates the AON
// IO rail, driven by a chipset GPIO level. Its leakage when open is <0.3%
// of the gated load (§5.3), which the platform charges as a residual draw.
type FET struct {
	ring *Ring
	// LeakageFraction is the off-state leakage relative to the gated load.
	LeakageFraction float64
}

// DefaultLeakageFraction is a board FET's off-state leakage relative to
// the gated load (§5.3: <0.3%).
const DefaultLeakageFraction = 0.003

// NewFET wires a FET to a ring.
func NewFET(ring *Ring) *FET {
	return &FET{ring: ring, LeakageFraction: DefaultLeakageFraction}
}

// Drive applies the GPIO level: true opens the FET (rail cut / gated).
func (f *FET) Drive(gateOn bool) {
	f.ring.SetGated(gateOn)
}

// ResidualLeakageMW returns the off-state leakage while gating.
func (f *FET) ResidualLeakageMW() float64 {
	if !f.ring.Gated() {
		return 0
	}
	return f.ring.loadMW() * f.LeakageFraction
}
