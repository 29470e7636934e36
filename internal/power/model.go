package power

import (
	"fmt"

	"odrips/internal/sim"
)

// State enumerates the four connected-standby phases of the paper's
// Equation 1 and Fig. 2.
type State int

const (
	Active State = iota // C0, display off, kernel maintenance
	Entry               // preparing to enter DRIPS
	Idle                // DRIPS / ODRIPS residency
	Exit                // preparing to exit DRIPS
	numStates
)

var stateNames = [...]string{"Active", "Entry", "DRIPS", "Exit"}

// String returns the state name.
func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("State(%d)", int(s))
	}
	return stateNames[s]
}

// States lists all states in canonical order.
func States() []State { return []State{Active, Entry, Idle, Exit} }

// Profile is the analytic connected-standby model: per-state average power
// and residency. It implements the paper's Equation 1:
//
//	Average = Σ_state power(state) × residency(state)
//
// This is the "in-house power model" used before silicon; the experiments
// validate it against the simulated measurement (paper reports ~95%
// accuracy for theirs).
type Profile struct {
	PowerMW   [numStates]float64
	Residency [numStates]float64
}

// NewProfile builds a profile from per-cycle state durations and powers.
// Durations are one connected-standby period (Fig. 2); residencies are
// derived as duration shares.
func NewProfile(powerMW map[State]float64, durations map[State]sim.Duration) (Profile, error) {
	var p Profile
	var total float64
	for _, s := range States() {
		d, ok := durations[s]
		if !ok {
			return Profile{}, fmt.Errorf("power: missing duration for state %s", s)
		}
		if d < 0 {
			return Profile{}, fmt.Errorf("power: negative duration for state %s", s)
		}
		total += d.Seconds()
	}
	if total <= 0 {
		return Profile{}, fmt.Errorf("power: zero total cycle duration")
	}
	for _, s := range States() {
		mw, ok := powerMW[s]
		if !ok {
			return Profile{}, fmt.Errorf("power: missing power for state %s", s)
		}
		if mw < 0 {
			return Profile{}, fmt.Errorf("power: negative power for state %s", s)
		}
		p.PowerMW[s] = mw
		p.Residency[s] = durations[s].Seconds() / total
	}
	return p, nil
}

// AverageMW evaluates Equation 1.
func (p Profile) AverageMW() float64 {
	var avg float64
	for _, s := range States() {
		avg += p.PowerMW[s] * p.Residency[s]
	}
	return avg
}

// CycleEnergy describes one idle cycle for break-even analysis: the energy
// spent transitioning in and out of the idle state, and the idle power that
// is paid for the duration of the residency.
type CycleEnergy struct {
	// TransitionUJ is the total entry+exit battery energy in microjoules.
	TransitionUJ float64
	// IdleMW is the battery power while resident in the idle state.
	IdleMW float64
}

// BreakEven returns the minimum idle residency at which the optimized state
// opt consumes less energy per cycle than base:
//
//	T* = (ΔE_transition) / (ΔP_idle)
//
// It returns an error if opt does not reduce idle power (no crossover) or
// if opt has no transition-energy penalty (always better; break-even 0).
func BreakEven(base, opt CycleEnergy) (sim.Duration, error) {
	dP := base.IdleMW - opt.IdleMW // mW
	dE := opt.TransitionUJ - base.TransitionUJ
	if dP <= 0 {
		return 0, fmt.Errorf("power: optimized idle power %.3f mW does not improve on %.3f mW", opt.IdleMW, base.IdleMW)
	}
	if dE <= 0 {
		return 0, nil
	}
	// T = dE[uJ] / dP[mW] = dE*1e-6 J / dP*1e-3 W seconds = dE/dP ms.
	return sim.FromSeconds(dE / dP * 1e-3), nil
}

// SweepPoint is one residency sample of a break-even sweep (§7: residency
// swept from 0.6 ms to 1 s at 0.1 ms granularity).
type SweepPoint struct {
	Residency sim.Duration
	BaseMW    float64
	OptMW     float64
}

// BreakEvenFromSweep scans sweep points in increasing residency order and
// returns the first residency at which the optimized average power is below
// the baseline's, mirroring the paper's empirical method. ok is false if no
// crossover occurs within the sweep.
func BreakEvenFromSweep(points []SweepPoint) (sim.Duration, bool) {
	for _, p := range points {
		if p.OptMW < p.BaseMW {
			return p.Residency, true
		}
	}
	return 0, false
}
