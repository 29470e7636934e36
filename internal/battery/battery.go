// Package battery converts the platform's average-power measurements into
// the quantity end users feel: standby battery life. The paper motivates
// ODRIPS with battery life in connected standby (§1); this model adds
// realistic pack behavior — usable-capacity derating and chemical
// self-discharge — so "22% lower average power" can be stated as days.
package battery

import "fmt"

// Pack is a lithium battery pack.
type Pack struct {
	// CapacityMWh is the nameplate capacity.
	CapacityMWh float64
	// UsableFraction derates the nameplate for the OS cutoff and aging
	// headroom (typically 0.92–0.97 for a healthy pack).
	UsableFraction float64
	// SelfDischargePctPerMonth is the chemical self-discharge (2–3%/month
	// for Li-ion at room temperature); it sets the ceiling on standby
	// life no matter how good the platform gets.
	SelfDischargePctPerMonth float64
}

// Validate checks pack parameters.
func (p Pack) Validate() error {
	if p.CapacityMWh <= 0 {
		return fmt.Errorf("battery: non-positive capacity")
	}
	if p.UsableFraction <= 0 || p.UsableFraction > 1 {
		return fmt.Errorf("battery: usable fraction %v out of (0,1]", p.UsableFraction)
	}
	if p.SelfDischargePctPerMonth < 0 || p.SelfDischargePctPerMonth >= 100 {
		return fmt.Errorf("battery: self-discharge %v%%/month out of range", p.SelfDischargePctPerMonth)
	}
	return nil
}

// Tablet returns a Surface-class 36 Wh pack.
func Tablet() Pack {
	return Pack{CapacityMWh: 36_000, UsableFraction: 0.95, SelfDischargePctPerMonth: 2.5}
}

// UsableMWh returns the derated capacity.
func (p Pack) UsableMWh() float64 { return p.CapacityMWh * p.UsableFraction }

// selfDischargeMW converts the monthly percentage into an equivalent
// constant drain in milliwatts.
func (p Pack) selfDischargeMW() float64 {
	const hoursPerMonth = 30 * 24
	return p.CapacityMWh * p.SelfDischargePctPerMonth / 100 / hoursPerMonth
}

// StandbyHours returns how long the pack sustains the given platform
// average power, self-discharge included.
func (p Pack) StandbyHours(avgMW float64) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if avgMW < 0 {
		return 0, fmt.Errorf("battery: negative average power")
	}
	total := avgMW + p.selfDischargeMW()
	if total <= 0 {
		return 0, fmt.Errorf("battery: zero total drain")
	}
	return p.UsableMWh() / total, nil
}

// StandbyDays is StandbyHours in days.
func (p Pack) StandbyDays(avgMW float64) (float64, error) {
	h, err := p.StandbyHours(avgMW)
	return h / 24, err
}

// DrainPct returns the percentage of usable capacity consumed by running
// at avgMW for the given hours (self-discharge included).
func (p Pack) DrainPct(avgMW, hours float64) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if avgMW < 0 || hours < 0 {
		return 0, fmt.Errorf("battery: negative inputs")
	}
	used := (avgMW + p.selfDischargeMW()) * hours
	return 100 * used / p.UsableMWh(), nil
}
