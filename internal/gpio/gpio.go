// Package gpio models the chipset's general-purpose IO block. ODRIPS uses
// two spare GPIOs (§5.3): one to monitor the embedded controller's thermal
// wake line, one to control the board FET that gates the processor's AON IO
// rail. Input pins are sampled on a clock — the 24 MHz clock in baseline
// DRIPS, the 32.768 kHz clock in ODRIPS (§5.2) — so wake detection latency
// is quantized to the sampling clock, which is exactly the latency/power
// trade the paper makes.
//
// Sampling is modeled lazily: externally driven changes are only evaluated
// at the next sampling-clock edge after the drive, which is observationally
// identical to per-edge sampling but costs O(changes) simulation events
// instead of one event per clock edge across a 30-second idle window.
package gpio

import (
	"fmt"
	"sort"

	"odrips/internal/clock"
	"odrips/internal/sim"
)

// Mode is a pin mode.
type Mode int

const (
	// Input pins are sampled and deliver edge callbacks.
	Input Mode = iota
	// Output pins are driven by firmware.
	Output
)

// Pin is a single GPIO.
type Pin struct {
	name string
	mode Mode

	level       bool // current (sampled, for inputs) level
	pending     bool // externally driven level awaiting a sampling edge
	havePending bool
	sampler     *clock.Oscillator
	sampleEvent sim.Event
	sched       *sim.Scheduler
	onEdge      func(rising bool, at sim.Time)
}

// Bank is a set of pins sharing a scheduler.
type Bank struct {
	sched *sim.Scheduler
	pins  map[string]*Pin
}

// NewBank creates an empty bank.
func NewBank(sched *sim.Scheduler) *Bank {
	return &Bank{sched: sched, pins: make(map[string]*Pin)}
}

// Claim allocates a named pin. Claiming a name twice panics: pin muxing is
// a board-design-time decision.
func (b *Bank) Claim(name string, mode Mode) *Pin {
	if _, dup := b.pins[name]; dup {
		panic(fmt.Sprintf("gpio: pin %q claimed twice", name))
	}
	p := &Pin{name: name, mode: mode, sched: b.sched}
	b.pins[name] = p
	return p
}

// Pins returns every claimed pin sorted by name.
func (b *Bank) Pins() []*Pin {
	out := make([]*Pin, 0, len(b.pins))
	for _, p := range b.pins {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// FastForwardState exports the pin's behavior-relevant mutable state for
// the platform fast-forward fingerprint (DESIGN.md §12): everything that
// determines how the pin reacts to future drives and samples. The sampler
// is identified by oscillator name ("" when unwatched).
func (p *Pin) FastForwardState() (mode Mode, level, pending, havePending, watched, samplePending bool, sampler string) {
	if p.sampler != nil {
		sampler = p.sampler.Name()
	}
	return p.mode, p.level, p.pending, p.havePending, p.onEdge != nil, p.sampleEvent.Pending(), sampler
}

// Name returns the pin name.
func (p *Pin) Name() string { return p.name }

// SetOutput drives an output pin. The new level is visible immediately to
// whatever the pin controls (the FET model reads it synchronously).
func (p *Pin) SetOutput(level bool) error {
	if p.mode != Output {
		return fmt.Errorf("gpio: %s: SetOutput on input pin", p.name)
	}
	p.level = level
	return nil
}

// WatchInput arms an input pin: externally driven changes are observed at
// the first rising edge of sampler after the drive, and fn fires when the
// observed level differs from the previous sample. Re-arming replaces the
// previous sampler/callback (the DRIPS↔ODRIPS transition does exactly this
// to move from 24 MHz to 32 kHz sampling).
func (p *Pin) WatchInput(sampler *clock.Oscillator, fn func(rising bool, at sim.Time)) error {
	if p.mode != Input {
		return fmt.Errorf("gpio: %s: WatchInput on output pin", p.name)
	}
	p.sampler = sampler
	p.onEdge = fn
	if p.havePending {
		p.scheduleSample()
	}
	return nil
}

// Drive sets the externally-driven level of an input pin (e.g. the EC
// raising the thermal line). The change is only observed at the next
// sampling edge.
func (p *Pin) Drive(level bool) error {
	if p.mode != Input {
		return fmt.Errorf("gpio: %s: Drive on output pin", p.name)
	}
	p.pending = level
	p.havePending = true
	if p.sampler != nil {
		p.scheduleSample()
	}
	return nil
}

func (p *Pin) scheduleSample() {
	if p.sampleEvent.Pending() {
		return // an evaluation is already queued at the next edge
	}
	p.sampleEvent = p.sampler.ScheduleEdge("gpio.sample."+p.name, p.sample)
}

func (p *Pin) sample() {
	p.sampleEvent = sim.Event{}
	if !p.havePending {
		return
	}
	newLevel := p.pending
	p.havePending = false
	if newLevel == p.level {
		return // glitch shorter than a sample period, or no-op
	}
	p.level = newLevel
	if p.onEdge != nil {
		p.onEdge(newLevel, p.sched.Now())
	}
}
