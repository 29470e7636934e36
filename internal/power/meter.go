// Package power provides energy accounting for the simulated platform and
// the analytic connected-standby power model of the paper (Equation 1).
//
// Every hardware block registers a Component with the platform Meter and
// reports draw changes as the simulation runs. The meter integrates energy
// exactly (piecewise-constant draws between events) at two levels:
//
//   - nominal energy, at the component's own supply, and
//   - battery energy, with the power-delivery tax applied (the paper
//     measures 74% delivery efficiency in DRIPS, footnote 5).
//
// Integration is fixed-point and exact: draws are quantized to integer
// nanowatts when they are set, and energy accumulates as an integer
// picojoule count plus an exact zeptojoule remainder (1 nW * 1 ps = 1 zJ,
// and 1e9 zJ = 1 pJ). Because the per-interval contribution is computed
// with a full 128-bit intermediate and the remainder is carried, settling
// a draw interval in any number of pieces yields bit-identical accumulator
// state — the property the platform's cycle fast-forward engine relies on
// to replay whole cycles as arithmetic deltas (DESIGN.md §12). Every float
// the meter reports is a pure function of this integer state.
//
// The sampled power analyzer in package measure reads the meter's
// instantaneous battery power, mirroring the paper's Keysight N6705B setup.
package power

import (
	"fmt"
	"math/bits"
	"sort"

	"odrips/internal/sim"
)

// Supply says how a component is powered.
type Supply int

const (
	// Delivered components sit behind a voltage regulator and pay the
	// power-delivery tax: battery draw = nominal / efficiency.
	Delivered Supply = iota
	// Direct components draw straight from the battery rail (e.g. the
	// quiescent current of the always-on regulators themselves).
	Direct
)

// zJPerPJ is the fixed-point remainder base: 1 pJ = 1e9 zJ, and
// 1 nW * 1 ps = 1 zJ, so draw[nW] * dt[ps] accumulates in zeptojoules.
const zJPerPJ = 1_000_000_000

// Energy is an exact fixed-point energy: an integer picojoule count plus a
// zeptojoule remainder in [0, 1e9). The zero value is zero energy.
// Additions carry exactly, so sums of Energy values are associative —
// unlike float64 joules, (a+b)+c always equals a+(b+c).
type Energy struct {
	PJ int64 // picojoules
	ZJ int64 // zeptojoule remainder, in [0, zJPerPJ)
}

// Add returns e + d with exact carry.
func (e Energy) Add(d Energy) Energy {
	e.PJ += d.PJ
	e.ZJ += d.ZJ
	if e.ZJ >= zJPerPJ {
		e.PJ++
		e.ZJ -= zJPerPJ
	}
	return e
}

// Sub returns e - d (both non-negative accumulator states, e >= d).
func (e Energy) Sub(d Energy) Energy {
	e.PJ -= d.PJ
	e.ZJ -= d.ZJ
	if e.ZJ < 0 {
		e.PJ--
		e.ZJ += zJPerPJ
	}
	return e
}

// MulN returns e scaled by a non-negative integer count with exact carry,
// for replaying a recorded per-cycle delta over a batch of identical
// cycles. The products stay far inside int64: a cycle delta is at most a
// few joules (~1e12 pJ) and batches are at most the cycle count of a run.
func (e Energy) MulN(n int64) Energy {
	if n < 0 {
		panic("power: Energy.MulN with negative count")
	}
	z := e.ZJ * n
	return Energy{PJ: e.PJ*n + z/zJPerPJ, ZJ: z % zJPerPJ}
}

// Joules converts to float64 joules (reporting only).
func (e Energy) Joules() float64 {
	return float64(e.PJ)*1e-12 + float64(e.ZJ)*1e-21
}

// IsZero reports whether the energy is exactly zero.
func (e Energy) IsZero() bool { return e.PJ == 0 && e.ZJ == 0 }

// energyFor integrates draw[nW] over dt[ps] exactly: the 128-bit product
// nW*ps is split into picojoules and a zeptojoule remainder.
func energyFor(drawNW int64, dt sim.Duration) Energy {
	if drawNW <= 0 || dt <= 0 {
		return Energy{}
	}
	hi, lo := bits.Mul64(uint64(drawNW), uint64(dt))
	// hi < 1e9 whenever drawNW*dt < 1e9*2^64 zJ ~= 1.8e10 J — far beyond
	// any modeled interval (a 3 W draw over the full ~106-day sim.Time
	// range is ~2.7e7 J), so Div64 cannot panic here.
	q, r := bits.Div64(hi, lo, zJPerPJ)
	return Energy{PJ: int64(q), ZJ: int64(r)}
}

// Component is a named power consumer. Create components with Meter.Register.
type Component struct {
	name   string
	group  string
	supply Supply

	drawMW     float64 // as-set draw, reported by DrawMW
	drawNW     int64   // quantized draw integrated into nominal energy
	battDrawNW int64   // quantized draw integrated into battery energy
	battStale  bool    // battDrawNW needs re-deriving from drawNW
	eff        float64 // mirror of Meter.efficiency for the lazy derivation
	nominal    Energy
	battery    Energy
	changedAt  sim.Time
}

// Name returns the component name.
func (c *Component) Name() string { return c.name }

// Group returns the reporting group (e.g. "processor", "board").
func (c *Component) Group() string { return c.group }

// DrawMW returns the current nominal draw in milliwatts.
func (c *Component) DrawMW() float64 { return c.drawMW }

// DrawsNW returns the quantized integrated draws (nominal and battery
// side), the integer state the fast-forward fingerprint hashes.
func (c *Component) DrawsNW() (nominal, battery int64) { return c.drawNW, c.battDraw() }

// battDraw returns the battery-side quantized draw, re-deriving it on the
// first observation after a draw or efficiency change. The derivation
// divides by the delivery efficiency; deferring it off the Set hot path
// costs nothing per settled interval (each draw change is observed at most
// once) and keeps Set itself integer-only.
func (c *Component) battDraw() int64 {
	if c.battStale {
		c.battDrawNW = battQuant(c.drawNW, c.supply, c.eff)
		c.battStale = false
	}
	return c.battDrawNW
}

// Meter owns all components of a platform and integrates their energy.
type Meter struct {
	sched      *sim.Scheduler
	byName     map[string]*Component
	components []*Component
	efficiency float64 // current power-delivery efficiency (0,1]
}

// NewMeter creates a meter with the given initial power-delivery efficiency.
func NewMeter(sched *sim.Scheduler, efficiency float64) *Meter {
	m := &Meter{sched: sched, byName: make(map[string]*Component)}
	m.SetEfficiency(efficiency)
	return m
}

// Register adds a component with zero initial draw. Registering a duplicate
// name panics: component names identify breakdown rows.
func (m *Meter) Register(name, group string, supply Supply) *Component {
	if _, dup := m.byName[name]; dup {
		panic(fmt.Sprintf("power: duplicate component %q", name))
	}
	c := &Component{name: name, group: group, supply: supply, eff: m.efficiency, changedAt: m.sched.Now()}
	m.byName[name] = c
	m.components = append(m.components, c)
	return c
}

// Lookup returns a registered component, or nil.
func (m *Meter) Lookup(name string) *Component { return m.byName[name] }

// Components returns all components sorted by name.
func (m *Meter) Components() []*Component {
	out := append([]*Component(nil), m.components...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Ordered returns the components in registration order. Registration order
// is a platform construction constant, which makes it a stable dense index
// for the fast-forward engine's per-component delta vectors.
func (m *Meter) Ordered() []*Component { return m.components }

// Efficiency returns the current power-delivery efficiency.
func (m *Meter) Efficiency() float64 { return m.efficiency }

// SetEfficiency changes the power-delivery efficiency from the current
// instant onward, settling accumulated energy first.
func (m *Meter) SetEfficiency(eff float64) {
	if eff <= 0 || eff > 1 {
		panic(fmt.Sprintf("power: efficiency %v out of (0,1]", eff))
	}
	m.settleAll()
	m.efficiency = eff
	for _, c := range m.components {
		c.eff = eff
		c.battStale = true
	}
}

// Set changes a component's nominal draw from the current instant onward.
// Negative draws panic.
func (m *Meter) Set(c *Component, drawMW float64) {
	if drawMW < 0 {
		panic(fmt.Sprintf("power: negative draw %v for %s", drawMW, c.name))
	}
	m.settle(c)
	c.drawMW = drawMW
	c.drawNW = int64(drawMW*1e6 + 0.5)
	c.battStale = true
}

// battQuant derives the integrated battery-side draw: the delivery tax is
// folded into the quantized draw when it changes, so integration itself
// stays a pure integer product.
func battQuant(drawNW int64, supply Supply, eff float64) int64 {
	if supply == Direct {
		return drawNW
	}
	return int64(float64(drawNW)/eff + 0.5)
}

// settle accumulates a component's energy up to now. Settling is exact, so
// settling at extra instants never changes the accumulated totals.
func (m *Meter) settle(c *Component) {
	now := m.sched.Now()
	if dt := now.Sub(c.changedAt); dt > 0 {
		c.nominal = c.nominal.Add(energyFor(c.drawNW, dt))
		c.battery = c.battery.Add(energyFor(c.battDraw(), dt))
	}
	c.changedAt = now
}

func (m *Meter) settleAll() {
	for _, c := range m.components {
		m.settle(c)
	}
}

// SettleAll settles every component's accumulators up to now. The
// fast-forward engine calls this at a cycle boundary before bulk-advancing
// the clock, so the skipped window's energy can then be applied as deltas.
func (m *Meter) SettleAll() { m.settleAll() }

// ReplayAdvance applies memoized per-component energy deltas (indexed in
// registration order, see Ordered) for a window the scheduler skipped.
// The caller must SettleAll before advancing the clock; draws are
// unchanged because a replayed cycle ends in the same phase it starts in.
func (m *Meter) ReplayAdvance(nominal, battery []Energy) {
	if len(nominal) != len(m.components) || len(battery) != len(m.components) {
		panic("power: ReplayAdvance delta vectors do not match component count")
	}
	now := m.sched.Now()
	for i, c := range m.components {
		c.nominal = c.nominal.Add(nominal[i])
		c.battery = c.battery.Add(battery[i])
		c.changedAt = now
	}
}

// EnergyOf settles and returns a component's exact accumulated energies.
func (m *Meter) EnergyOf(c *Component) (nominal, battery Energy) {
	m.settle(c)
	return c.nominal, c.battery
}

// TotalBattery settles and returns the exact total battery energy. Integer
// accumulation makes the sum order-independent.
func (m *Meter) TotalBattery() Energy {
	var t Energy
	for _, c := range m.components {
		m.settle(c)
		t = t.Add(c.battery)
	}
	return t
}

// BatteryPowerMW returns the instantaneous platform draw at the battery.
func (m *Meter) BatteryPowerMW() float64 {
	var total float64
	for _, c := range m.components {
		if c.supply == Delivered {
			total += c.drawMW / m.efficiency
		} else {
			total += c.drawMW
		}
	}
	return total
}

// NominalPowerMW returns the instantaneous sum of nominal draws.
func (m *Meter) NominalPowerMW() float64 {
	var total float64
	for _, c := range m.components {
		total += c.drawMW
	}
	return total
}

// Snapshot captures per-component battery energy at the current instant.
// Subtracting two snapshots gives the energy spent in an interval.
type Snapshot struct {
	At       sim.Time
	Battery  map[string]Energy
	NominalE map[string]Energy
}

// Snapshot settles and captures all component energies.
func (m *Meter) Snapshot() Snapshot {
	m.settleAll()
	s := Snapshot{
		At:       m.sched.Now(),
		Battery:  make(map[string]Energy, len(m.components)),
		NominalE: make(map[string]Energy, len(m.components)),
	}
	for _, c := range m.components {
		s.Battery[c.name] = c.battery
		s.NominalE[c.name] = c.nominal
	}
	return s
}

// TotalBatteryJ returns the total battery energy in the snapshot in joules.
// The underlying sum is exact integer arithmetic, so it is order-free.
func (s Snapshot) TotalBatteryJ() float64 {
	var t Energy
	for _, e := range s.Battery {
		t = t.Add(e)
	}
	return t.Joules()
}

// Interval is the energy spent between two snapshots.
type Interval struct {
	Duration sim.Duration
	ByName   map[string]Energy // exact battery energy per component
}

// Since returns the per-component battery energy spent since the earlier
// snapshot prev. Both snapshots must come from the same meter.
func (s Snapshot) Since(prev Snapshot) Interval {
	iv := Interval{
		Duration: s.At.Sub(prev.At),
		ByName:   make(map[string]Energy, len(s.Battery)),
	}
	for name, e := range s.Battery {
		iv.ByName[name] = e.Sub(prev.Battery[name])
	}
	return iv
}

// TotalJ returns the total battery energy in the interval in joules
// (exact integer summation underneath; order-free).
func (iv Interval) TotalJ() float64 {
	var t Energy
	for _, e := range iv.ByName {
		t = t.Add(e)
	}
	return t.Joules()
}

// AverageMW returns the interval's average battery power in milliwatts.
func (iv Interval) AverageMW() float64 {
	if iv.Duration <= 0 {
		return 0
	}
	return iv.TotalJ() * 1e3 / iv.Duration.Seconds()
}
