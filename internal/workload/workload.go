// Package workload generates connected-standby activity patterns (§7):
// the platform idles for long windows (~30 s), wakes for kernel
// maintenance (100–300 ms), and occasionally takes on-demand wakes from
// external triggers. It also builds the residency sweeps used to measure
// break-even points (0.6 ms to 1 s at 0.1 ms granularity).
package workload

import (
	"math/rand"

	"odrips/internal/sim"
)

// WakeKind says what ends an idle window.
type WakeKind int

const (
	// WakeTimer is the scheduled OS timer (the dominant case).
	WakeTimer WakeKind = iota
	// WakeExternal is a network/peripheral event through the chipset.
	WakeExternal
	// WakeThermal is an EC thermal report on the offloaded GPIO.
	WakeThermal
)

// Cycle is one connected-standby period: an active burst followed by an
// idle window ended by the given wake source. Active == 0 lets the
// platform use its own computed maintenance duration.
type Cycle struct {
	Active sim.Duration
	Idle   sim.Duration
	Wake   WakeKind
}

// ConnectedStandby generates n paper-style cycles: ~30 s idle with ±10%
// jitter, platform-computed maintenance bursts, and a sprinkling of
// external and thermal wakes.
func ConnectedStandby(n int, seed int64) []Cycle {
	rng := rand.New(rand.NewSource(seed))
	cycles := make([]Cycle, n)
	for i := range cycles {
		idle := 30 * sim.Second
		jitter := sim.Duration(float64(idle) * 0.1 * (rng.Float64()*2 - 1))
		wake := WakeTimer
		switch r := rng.Float64(); {
		case r < 0.05:
			wake = WakeExternal
		case r < 0.07:
			wake = WakeThermal
		}
		cycles[i] = Cycle{Idle: idle + jitter, Wake: wake}
	}
	return cycles
}

// Fixed generates n identical timer-wake cycles (deterministic runs).
func Fixed(n int, active, idle sim.Duration) []Cycle {
	cycles := make([]Cycle, n)
	for i := range cycles {
		cycles[i] = Cycle{Active: active, Idle: idle, Wake: WakeTimer}
	}
	return cycles
}

// SweepResidencies returns the §7 break-even sweep grid: idle residencies
// from lo to hi inclusive at the given step.
func SweepResidencies(lo, hi, step sim.Duration) []sim.Duration {
	if step <= 0 || hi < lo {
		return nil
	}
	var out []sim.Duration
	for r := lo; r <= hi; r += step {
		out = append(out, r)
	}
	return out
}
