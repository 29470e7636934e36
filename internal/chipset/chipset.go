// Package chipset models the Sunrise-Point-like chipset as the wake-event
// "hub" of ODRIPS (§4–§5): it hosts the fast/slow timer pair and the switch
// protocol, monitors the EC thermal line through a spare GPIO, drives the
// board FET that gates the processor's AON IO rail, and controls the 24 MHz
// crystal during the idle window.
package chipset

import (
	"fmt"

	"odrips/internal/aonio"
	"odrips/internal/clock"
	"odrips/internal/gpio"
	"odrips/internal/sim"
	"odrips/internal/timer"
)

// WakeSource labels what woke the platform.
type WakeSource int

const (
	// WakeTimer: the armed timer target was reached.
	WakeTimer WakeSource = iota
	// WakeThermal: the embedded controller raised the thermal line.
	WakeThermal
	// WakeExternal: a peripheral wake (network packet, user input) arrived
	// through the chipset's always-on domain.
	WakeExternal
)

var wakeNames = [...]string{"timer", "thermal", "external"}

// String returns the wake source name.
func (w WakeSource) String() string {
	if w < 0 || int(w) >= len(wakeNames) {
		return fmt.Sprintf("WakeSource(%d)", int(w))
	}
	return wakeNames[w]
}

// Hub is the chipset's always-on wake logic.
type Hub struct {
	sched  *sim.Scheduler
	xtal24 *clock.Oscillator
	xtal32 *clock.Oscillator
	dom24  *clock.Domain // chipset-internal 24 MHz domain (fast timer, PML)

	bank       *gpio.Bank
	fetPin     *gpio.Pin
	thermalPin *gpio.Pin
	fet        *aonio.FET

	unit        *timer.Unit
	calibration *timer.CalibrationResult

	// OnWake fires once per idle period on the first wake event.
	OnWake func(src WakeSource, at sim.Time)

	hosting   bool // chipset currently owns platform timekeeping
	wakeFired bool
	wakeEv    sim.Event

	wakes map[WakeSource]uint64
}

// New assembles a hub. fet may be nil when the board has no AON IO gate
// (pure-baseline builds).
func New(sched *sim.Scheduler, xtal24, xtal32 *clock.Oscillator, fet *aonio.FET) *Hub {
	bank := gpio.NewBank(sched)
	return &Hub{
		sched:      sched,
		xtal24:     xtal24,
		xtal32:     xtal32,
		dom24:      clock.NewDomain("chipset.clk24", xtal24),
		bank:       bank,
		fetPin:     bank.Claim("fet-control", gpio.Output),
		thermalPin: bank.Claim("ec-thermal", gpio.Input),
		fet:        fet,
		wakes:      make(map[WakeSource]uint64),
	}
}

// Dom24 returns the chipset's 24 MHz clock domain (PML and fast timer).
func (h *Hub) Dom24() *clock.Domain { return h.dom24 }

// ThermalPin returns the EC thermal input (the EC model drives it).
func (h *Hub) ThermalPin() *gpio.Pin { return h.thermalPin }

// Unit returns the timer switch unit (nil before calibration).
func (h *Hub) Unit() *timer.Unit { return h.unit }

// Calibration returns the Step calibration result (nil before Calibrate).
func (h *Hub) Calibration() *timer.CalibrationResult { return h.calibration }

// Hosting reports whether the chipset currently owns timekeeping.
func (h *Hub) Hosting() bool { return h.hosting }

// WakeFired reports whether the wake latch is set (a wake was delivered
// and ResetWakeLatch has not run since).
func (h *Hub) WakeFired() bool { return h.wakeFired }

// ReplayAddWakes bulk-advances a wake-source counter by n, standing in
// for n fireWake calls whose cycles the platform replayed. Only the
// statistics move; the wake callback is untouched, and the latch is
// restored separately via ReplayRestoreWakeLatch.
func (h *Hub) ReplayAddWakes(src WakeSource, n uint64) { h.wakes[src] += n }

// ReplayRestoreWakeLatch forces the wake latch to a recorded
// end-of-cycle value. A completed deep-idle cycle leaves the latch set
// until the next idle entry re-arms it, so a replayed cycle must
// reproduce that state for the boundary to match the simulated path.
func (h *Hub) ReplayRestoreWakeLatch(fired bool) { h.wakeFired = fired }

// GPIOPins returns the chipset's claimed GPIO pins sorted by name, for
// the platform fast-forward fingerprint.
func (h *Hub) GPIOPins() []*gpio.Pin { return h.bank.Pins() }

// WakeCounts returns per-source wake statistics.
func (h *Hub) WakeCounts() map[WakeSource]uint64 {
	out := make(map[WakeSource]uint64, len(h.wakes))
	for k, v := range h.wakes {
		out[k] = v
	}
	return out
}

// Calibrate measures the Step once (platform reset flow, §4.1.3) and
// builds the timer switch unit. Both crystals must be running.
func (h *Hub) Calibrate() error {
	res, err := timer.CalibrateNow(h.sched, h.xtal24, h.xtal32)
	if err != nil {
		return fmt.Errorf("chipset: calibration: %w", err)
	}
	h.calibration = &res
	h.unit = timer.NewUnit(h.sched, h.dom24, h.xtal32, res.Step)
	return nil
}

// AdoptTimer takes over timekeeping: the (PML-compensated) main timer value
// lands in the fast timer, and at the next 32 kHz edge counting moves to
// the slow timer. done fires at that edge; the 24 MHz crystal may be shut
// afterwards.
func (h *Hub) AdoptTimer(value uint64, done func(at sim.Time)) error {
	if h.unit == nil {
		return fmt.Errorf("chipset: AdoptTimer before calibration")
	}
	if h.hosting {
		return fmt.Errorf("chipset: already hosting timekeeping")
	}
	h.wakeFired = false
	return h.unit.EnterSlow(value, func(at sim.Time) {
		h.hosting = true
		if done != nil {
			done(at)
		}
	})
}

// ArmTimerWake schedules a timer wake at the given platform timer value.
// Must be called while hosting (ODRIPS idle window).
func (h *Hub) ArmTimerWake(target uint64) error {
	if !h.hosting {
		return fmt.Errorf("chipset: ArmTimerWake while not hosting")
	}
	ev, err := h.unit.WakeAt(target, "chipset.timer-wake", func() {
		h.fireWake(WakeTimer)
	})
	if err != nil {
		return err
	}
	h.sched.Cancel(h.wakeEv)
	h.wakeEv = ev
	return nil
}

// MonitorThermal samples the EC thermal line with the given oscillator
// (24 MHz in baseline DRIPS, 32.768 kHz in ODRIPS, §5.2). A rising sample
// fires a thermal wake.
func (h *Hub) MonitorThermal(sampler *clock.Oscillator) error {
	return h.thermalPin.WatchInput(sampler, func(rising bool, at sim.Time) {
		if rising {
			h.fireWake(WakeThermal)
		}
	})
}

// ExternalWake injects a peripheral wake event. While the chipset AON
// domain is monitored with the slow clock (hosting), detection is
// quantized to the next 32 kHz edge; otherwise it is detected within a
// 24 MHz cycle (treated as immediate).
func (h *Hub) ExternalWake() {
	if h.hosting {
		h.xtal32.ScheduleEdge("chipset.external-wake", func() {
			h.fireWake(WakeExternal)
		})
		return
	}
	h.fireWake(WakeExternal)
}

func (h *Hub) fireWake(src WakeSource) {
	if h.wakeFired {
		return
	}
	h.wakeFired = true
	h.wakes[src]++
	h.sched.Cancel(h.wakeEv)
	h.wakeEv = sim.Event{}
	if h.OnWake != nil {
		h.OnWake(src, h.sched.Now())
	}
}

// ResetWakeLatch re-arms the one-shot wake latch (called when the platform
// commits to a new idle period).
func (h *Hub) ResetWakeLatch() { h.wakeFired = false }

// GateProcessorIOs drives the FET to cut the processor AON IO rail (§5.2).
func (h *Hub) GateProcessorIOs() error {
	if h.fet == nil {
		return fmt.Errorf("chipset: no FET on this board")
	}
	if err := h.fetPin.SetOutput(true); err != nil {
		return err
	}
	h.fet.Drive(true)
	return nil
}

// ReleaseProcessorIOs reconnects the processor AON IO rail.
func (h *Hub) ReleaseProcessorIOs() error {
	if h.fet == nil {
		return fmt.Errorf("chipset: no FET on this board")
	}
	if err := h.fetPin.SetOutput(false); err != nil {
		return err
	}
	h.fet.Drive(false)
	return nil
}

// ShutFastCrystal gates the chipset 24 MHz domain and powers the crystal
// off. Only legal while the slow timer hosts timekeeping.
func (h *Hub) ShutFastCrystal() error {
	if !h.hosting {
		return fmt.Errorf("chipset: ShutFastCrystal while fast timer still in use")
	}
	h.dom24.Gate()
	h.xtal24.PowerOff()
	return nil
}

// RestoreFastTimer powers the 24 MHz crystal back on, ungates the domain,
// and switches counting back to the fast timer at a 32 kHz edge. done
// receives the reloaded timer value for the PML transfer back to the
// processor.
func (h *Hub) RestoreFastTimer(done func(value uint64, at sim.Time)) error {
	if !h.hosting {
		return fmt.Errorf("chipset: RestoreFastTimer while not hosting")
	}
	h.xtal24.PowerOn()
	h.dom24.Ungate()
	return h.unit.ExitFast(func(v uint64, at sim.Time) {
		h.hosting = false
		if done != nil {
			done(v, at)
		}
	})
}
