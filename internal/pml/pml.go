// Package pml models the Power Management Link of §4.1.2: two deterministic
// master-slave serial interfaces between the processor and the chipset,
// clocked by the 24 MHz clock. The link's fixed transfer latency is what the
// timer hand-off compensates for by adding a constant to transferred timer
// values.
package pml

import (
	"fmt"

	"odrips/internal/clock"
	"odrips/internal/sim"
)

// Kind labels a link message.
type Kind int

const (
	// TimerValue carries a 64-bit timer value (hand-off flows).
	TimerValue Kind = iota
	// WakeRequest tells the processor to start the DRIPS exit flow.
	WakeRequest
	// EnterIdle tells the chipset the processor is committing to DRIPS.
	EnterIdle
	// ThermalEvent forwards an embedded-controller thermal report.
	ThermalEvent
)

var kindNames = [...]string{"timer-value", "wake-request", "enter-idle", "thermal-event"}

// String returns the kind name.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Message is one transfer on the link.
type Message struct {
	Kind  Kind
	Value uint64
}

// Link is one direction of the PML. Both endpoints' pads must be powered
// (the processor side is behind the AON IO FET in ODRIPS) and the 24 MHz
// clock running for a transfer to start.
type Link struct {
	sched         *sim.Scheduler
	dom           *clock.Domain
	latencyCycles uint64

	// Powered, if non-nil, gates the link: it must report true at send
	// time. The platform wires it to the processor AON IO ring state.
	Powered func() bool

	// OnDeliver receives messages at the far end.
	OnDeliver func(Message)
}

// NewLink creates a link clocked by dom with the given transfer latency in
// 24 MHz cycles.
func NewLink(sched *sim.Scheduler, dom *clock.Domain, latencyCycles uint64) *Link {
	if latencyCycles == 0 {
		panic("pml: zero-latency link is not a deterministic serial interface")
	}
	return &Link{sched: sched, dom: dom, latencyCycles: latencyCycles}
}

// Send starts a transfer. Delivery happens latencyCycles clock edges after
// the next edge. Fails when the clock is stopped or the pads are unpowered.
func (l *Link) Send(m Message) error {
	if l.Powered != nil && !l.Powered() {
		return fmt.Errorf("pml: %v send with pads unpowered", m.Kind)
	}
	if !l.dom.Running() {
		return fmt.Errorf("pml: %v send with 24 MHz clock stopped", m.Kind)
	}
	k, _, ok := l.dom.NextEdge(l.sched.Now())
	if !ok {
		return fmt.Errorf("pml: no clock edge available")
	}
	at := l.dom.Source().EdgeTime(k + l.latencyCycles)
	l.sched.At(at, "pml.deliver", func() {
		if l.OnDeliver != nil {
			l.OnDeliver(m)
		}
	})
	return nil
}

// CompensateTimer returns a timer value adjusted for the transfer latency:
// the value the counter will hold when the message lands (§4.1.2: "we add
// a fixed constant to the transferred timer value").
func (l *Link) CompensateTimer(value uint64) uint64 {
	return value + l.latencyCycles
}
