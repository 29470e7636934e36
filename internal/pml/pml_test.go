package pml

import (
	"testing"

	"odrips/internal/clock"
	"odrips/internal/sim"
)

func newLink(t *testing.T) (*sim.Scheduler, *clock.Oscillator, *clock.Domain, *Link) {
	t.Helper()
	s := sim.NewScheduler()
	osc := clock.NewOscillator(s, "xtal24", 24_000_000, 0, 0)
	osc.PowerOn()
	dom := clock.NewDomain("pml", osc)
	return s, osc, dom, NewLink(s, dom, 16)
}

func TestSendDelivers(t *testing.T) {
	s, osc, _, l := newLink(t)
	var got []Message
	l.OnDeliver = func(m Message) { got = append(got, m) }
	s.RunFor(10 * sim.Nanosecond)
	if err := l.Send(Message{Kind: TimerValue, Value: 42}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(got) != 1 || got[0].Value != 42 {
		t.Fatalf("delivered = %+v", got)
	}
	// Delivery lands exactly latencyCycles edges after the first edge
	// at/after send time.
	wantAt := osc.EdgeTime(1 + 16)
	if s.Now() != wantAt {
		t.Fatalf("delivered at %v, want %v", s.Now(), wantAt)
	}
}

func TestSendFailsWhenClockStopped(t *testing.T) {
	_, osc, dom, l := newLink(t)
	dom.Gate()
	if err := l.Send(Message{Kind: WakeRequest}); err == nil {
		t.Fatal("send with gated clock succeeded")
	}
	dom.Ungate()
	osc.PowerOff()
	if err := l.Send(Message{Kind: WakeRequest}); err == nil {
		t.Fatal("send with crystal off succeeded")
	}
}

func TestSendFailsWhenUnpowered(t *testing.T) {
	_, _, _, l := newLink(t)
	powered := false
	l.Powered = func() bool { return powered }
	if err := l.Send(Message{Kind: EnterIdle}); err == nil {
		t.Fatal("send with unpowered pads succeeded")
	}
	powered = true
	if err := l.Send(Message{Kind: EnterIdle}); err != nil {
		t.Fatal(err)
	}
}

func TestCompensateTimer(t *testing.T) {
	_, _, _, l := newLink(t)
	if got := l.CompensateTimer(1000); got != 1016 {
		t.Fatalf("CompensateTimer(1000) = %d, want 1016", got)
	}
}

// TestTimerTransferEndToEnd checks the §4.1.2 latency-compensation trick:
// a timer value compensated at send equals the live counter at delivery.
func TestTimerTransferEndToEnd(t *testing.T) {
	s, osc, dom, l := newLink(t)
	// A live 64-bit counter on the same clock, modeled analytically.
	countAt := func(at sim.Time) uint64 { return osc.EdgesBetween(0, at) }
	s.RunFor(777 * sim.Nanosecond)
	var deliveredVal uint64
	var deliveredAt sim.Time
	l.OnDeliver = func(m Message) { deliveredVal, deliveredAt = m.Value, s.Now() }
	_ = dom
	live := countAt(s.Now())
	if err := l.Send(Message{Kind: TimerValue, Value: l.CompensateTimer(live)}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	want := countAt(deliveredAt)
	if deliveredVal != want && deliveredVal != want+1 {
		t.Fatalf("compensated value %d at delivery, live counter %d", deliveredVal, want)
	}
}

func TestLatency(t *testing.T) {
	s, _, _, l := newLink(t)
	// Sent on the edge at t=0, a message lands 16 cycles at 24 MHz later:
	// 666.67 ns.
	if err := l.Send(Message{Kind: WakeRequest}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if got := s.Now(); got < sim.Time(666*sim.Nanosecond) || got > sim.Time(667*sim.Nanosecond) {
		t.Fatalf("latency = %v, want ~666.7ns", got)
	}
}

func TestZeroLatencyPanics(t *testing.T) {
	s := sim.NewScheduler()
	osc := clock.NewOscillator(s, "x", 24_000_000, 0, 0)
	dom := clock.NewDomain("d", osc)
	defer func() {
		if recover() == nil {
			t.Fatal("zero-latency link did not panic")
		}
	}()
	NewLink(s, dom, 0)
}
