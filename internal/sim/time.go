// Package sim provides the discrete-event simulation kernel used by every
// other subsystem: a picosecond-resolution simulated clock, a deterministic
// event scheduler, and helpers for periodic processes.
//
// All timing in the ODRIPS model is expressed as sim.Time (picoseconds since
// simulation start). Picosecond resolution is fine enough to represent exact
// periods of both the 24 MHz fast crystal (41666.6... ps, represented via
// rational edge arithmetic in package clock) and the 32.768 kHz slow crystal
// (30517578.125 ps), while an int64 still spans ~106 days of simulated time,
// far beyond any connected-standby experiment in the paper.
package sim

import "fmt"

// Time is an instant in simulated time, in picoseconds since simulation
// start. The zero value is the simulation epoch.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration int64

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Seconds returns the instant as seconds since the epoch.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the instant with an adaptive unit.
func (t Time) String() string { return Duration(t).String() }

// Seconds returns the duration in seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Microseconds returns the duration in microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Milliseconds returns the duration in milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// FromSeconds converts seconds to a Duration, rounding to the nearest
// picosecond.
func FromSeconds(s float64) Duration {
	if s < 0 {
		return Duration(s*float64(Second) - 0.5)
	}
	return Duration(s*float64(Second) + 0.5)
}

// String renders the duration with an adaptive unit (ps, ns, us, ms, s).
func (d Duration) String() string {
	neg := ""
	if d < 0 {
		neg = "-"
		d = -d
	}
	switch {
	case d < Nanosecond:
		return fmt.Sprintf("%s%dps", neg, int64(d))
	case d < Microsecond:
		return fmt.Sprintf("%s%.3gns", neg, float64(d)/float64(Nanosecond))
	case d < Millisecond:
		return fmt.Sprintf("%s%.4gus", neg, float64(d)/float64(Microsecond))
	case d < Second:
		return fmt.Sprintf("%s%.4gms", neg, float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%s%.6gs", neg, float64(d)/float64(Second))
	}
}
