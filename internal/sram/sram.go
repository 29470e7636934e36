// Package sram models the on-chip save/restore SRAMs of Fig. 1(a): the SA
// context SRAM, the cores/GFX context SRAMs, and the 1 KB Boot SRAM of §6.2.
//
// Two properties matter for the paper's third technique. First, leakage:
// a high-performance processor's SRAM leaks ~5x more than an equal-capacity
// SRAM fabricated in the chipset's low-power process, even at retention
// voltage (§3, Observation 3). Second, volatility: dropping the retention
// supply loses the contents, which is exactly what ODRIPS exploits after
// the context has been moved to protected DRAM.
package sram

import (
	"bytes"
	"fmt"
)

// Process selects the fabrication process, which sets leakage density.
type Process int

const (
	// ProcessorProcess is performance-optimized (high leakage).
	ProcessorProcess Process = iota
	// ChipsetProcess is power-optimized: ~5x less leakage at Vmin.
	ChipsetProcess
)

// Leakage densities in microwatts per KiB. The 5x processor/chipset ratio
// is the paper's measured relation; absolute values are calibrated so a
// ~225 KiB processor context array at retention draws ~4.5 mW nominal.
const (
	procRetentionUWPerKiB = 20.0
	procActiveUWPerKiB    = 60.0
	chipRetentionUWPerKiB = 4.0
	chipActiveUWPerKiB    = 14.0
)

// State is the SRAM power state.
type State int

const (
	// Off: supply gated, contents lost.
	Off State = iota
	// Retention: minimum data-retention voltage, contents preserved,
	// array not accessible.
	Retention
	// Active: full voltage, accessible.
	Active
)

var stateNames = [...]string{"off", "retention", "active"}

// String returns the state name.
func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("State(%d)", int(s))
	}
	return stateNames[s]
}

// Array is a retention SRAM array holding real bytes. The bytes are
// allocated by the first Write: an array nothing writes (the context SRAMs
// of a platform that keeps its context in DRAM) costs no memory.
type Array struct {
	name    string
	process Process
	size    int
	state   State
	data    []byte // nil until the first Write
	valid   bool   // false after a power loss until next write

	// dirty bounds the bytes written since the last power loss: data[dirty:]
	// is zero, so entering Off clears only data[:dirty].
	dirty int

	// OnDraw, if non-nil, is called with the new nominal draw in mW on
	// every state change. The platform wires this to a power.Component.
	OnDraw func(mW float64)
}

// New creates an SRAM array, powered off.
func New(name string, process Process, sizeBytes int) *Array {
	if sizeBytes <= 0 {
		panic(fmt.Sprintf("sram: non-positive size %d for %s", sizeBytes, name))
	}
	return &Array{name: name, process: process, size: sizeBytes}
}

// Name returns the array label.
func (a *Array) Name() string { return a.name }

// Size returns the capacity in bytes.
func (a *Array) Size() int { return a.size }

// State returns the current power state.
func (a *Array) State() State { return a.state }

// DrawMW returns the nominal leakage draw for a state.
func (a *Array) DrawMW(s State) float64 {
	kib := float64(a.size) / 1024
	switch {
	case s == Off:
		return 0
	case s == Retention && a.process == ProcessorProcess:
		return procRetentionUWPerKiB * kib / 1000
	case s == Retention:
		return chipRetentionUWPerKiB * kib / 1000
	case a.process == ProcessorProcess:
		return procActiveUWPerKiB * kib / 1000
	default:
		return chipActiveUWPerKiB * kib / 1000
	}
}

// SetState transitions the power state. Entering Off clears the contents.
func (a *Array) SetState(s State) {
	if s == a.state {
		return
	}
	if s == Off {
		clear(a.data[:a.dirty])
		a.dirty = 0
		a.valid = false
	}
	a.state = s
	if a.OnDraw != nil {
		a.OnDraw(a.DrawMW(s))
	}
}

// Write stores data at offset. The array must be Active.
func (a *Array) Write(offset int, data []byte) error {
	if a.state != Active {
		return fmt.Errorf("sram: %s: write in state %s", a.name, a.state)
	}
	if offset < 0 || offset+len(data) > a.size {
		return fmt.Errorf("sram: %s: write [%d,%d) out of range (size %d)", a.name, offset, offset+len(data), a.size)
	}
	if a.data == nil {
		a.data = make([]byte, a.size)
	}
	copy(a.data[offset:], data)
	a.dirty = max(a.dirty, offset+len(data))
	a.valid = true
	return nil
}

// Read copies size bytes at offset. The array must be Active and must not
// have lost power since the last write.
func (a *Array) Read(offset, size int) ([]byte, error) {
	if err := a.readable(offset, size); err != nil {
		return nil, err
	}
	out := make([]byte, size)
	copy(out, a.data[offset:])
	return out, nil
}

// Equal reports whether the len(want) bytes at offset equal want,
// comparing in place under the same rules as Read.
func (a *Array) Equal(offset int, want []byte) (bool, error) {
	if err := a.readable(offset, len(want)); err != nil {
		return false, err
	}
	return bytes.Equal(a.data[offset:offset+len(want)], want), nil
}

// readable checks Read's rules for size bytes at offset.
func (a *Array) readable(offset, size int) error {
	if a.state != Active {
		return fmt.Errorf("sram: %s: read in state %s", a.name, a.state)
	}
	if offset < 0 || offset+size > a.size {
		return fmt.Errorf("sram: %s: read [%d,%d) out of range (size %d)", a.name, offset, offset+size, a.size)
	}
	if !a.valid {
		return fmt.Errorf("sram: %s: contents invalid (power was lost)", a.name)
	}
	return nil
}
