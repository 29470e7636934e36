package gpio

import (
	"testing"

	"odrips/internal/clock"
	"odrips/internal/sim"
)

func bench(t *testing.T) (*sim.Scheduler, *clock.Oscillator, *clock.Oscillator, *Bank) {
	t.Helper()
	s := sim.NewScheduler()
	fast := clock.NewOscillator(s, "xtal24", 24_000_000, 0, 0)
	slow := clock.NewOscillator(s, "xtal32", 32_768, 0, 0)
	fast.PowerOn()
	slow.PowerOn()
	return s, fast, slow, NewBank(s)
}

func TestOutputPin(t *testing.T) {
	_, _, _, b := bench(t)
	p := b.Claim("fet-ctl", Output)
	if err := p.SetOutput(true); err != nil {
		t.Fatal(err)
	}
	if !p.level {
		t.Fatal("output level not set")
	}
	if err := p.Drive(true); err == nil {
		t.Fatal("Drive on output pin succeeded")
	}
}

func TestInputModeRules(t *testing.T) {
	_, fast, _, b := bench(t)
	p := b.Claim("thermal", Input)
	if err := p.SetOutput(true); err == nil {
		t.Fatal("SetOutput on input pin succeeded")
	}
	if err := p.WatchInput(fast, nil); err != nil {
		t.Fatal(err)
	}
	out := b.Claim("out", Output)
	if err := out.WatchInput(fast, nil); err == nil {
		t.Fatal("WatchInput on output pin succeeded")
	}
}

func TestDuplicateClaimPanics(t *testing.T) {
	_, _, _, b := bench(t)
	b.Claim("x", Input)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate claim did not panic")
		}
	}()
	b.Claim("x", Output)
}

func TestLookup(t *testing.T) {
	_, _, _, b := bench(t)
	p := b.Claim("x", Input)
	if pins := b.Pins(); len(pins) != 1 || pins[0] != p {
		t.Fatalf("Pins() = %v, want the one claimed pin", pins)
	}
}

func TestEdgeDetectionLatencyQuantizedToSampler(t *testing.T) {
	s, fast, slow, b := bench(t)
	p := b.Claim("thermal", Input)

	// Sampled with the 32 kHz clock: detection waits for the next slow
	// edge (up to ~30.5 us) — the ODRIPS monitoring mode of §5.2.
	var at sim.Time
	if err := p.WatchInput(slow, func(rising bool, when sim.Time) {
		if rising {
			at = when
		}
	}); err != nil {
		t.Fatal(err)
	}
	s.RunFor(5 * sim.Microsecond)
	if err := p.Drive(true); err != nil {
		t.Fatal(err)
	}
	driveAt := s.Now()
	s.RunFor(100 * sim.Microsecond)
	if at == 0 {
		t.Fatal("edge never detected")
	}
	lat := at.Sub(driveAt)
	slowPeriod := sim.FromSeconds(1.0 / 32768)
	if lat < 0 || lat > slowPeriod {
		t.Fatalf("detection latency %v outside one slow period %v", lat, slowPeriod)
	}
	// Detection must land exactly on a slow-clock edge.
	_, edge, _ := slow.NextEdge(at)
	if edge != at {
		t.Fatalf("detection at %v not on a 32 kHz edge", at)
	}

	// Re-armed on the 24 MHz clock (baseline DRIPS): latency < 42 ns.
	var at2 sim.Time
	if err := p.WatchInput(fast, func(rising bool, when sim.Time) {
		if !rising {
			at2 = when
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Drive(false); err != nil {
		t.Fatal(err)
	}
	drive2 := s.Now()
	s.RunFor(sim.Microsecond)
	if at2 == 0 {
		t.Fatal("falling edge never detected on fast sampler")
	}
	if lat := at2.Sub(drive2); lat > 42*sim.Nanosecond {
		t.Fatalf("fast-sampled latency %v exceeds one 24 MHz period", lat)
	}
}

func TestGlitchShorterThanSampleMissed(t *testing.T) {
	s, _, slow, b := bench(t)
	p := b.Claim("glitchy", Input)
	fired := 0
	if err := p.WatchInput(slow, func(bool, sim.Time) { fired++ }); err != nil {
		t.Fatal(err)
	}
	s.RunFor(2 * sim.Microsecond)
	// Pulse up and back down between two slow edges: invisible.
	if err := p.Drive(true); err != nil {
		t.Fatal(err)
	}
	s.RunFor(sim.Microsecond)
	if err := p.Drive(false); err != nil {
		t.Fatal(err)
	}
	s.RunFor(200 * sim.Microsecond)
	if fired != 0 {
		t.Fatalf("sub-sample glitch detected %d times", fired)
	}
}

func TestStats(t *testing.T) {
	s, _, slow, b := bench(t)
	p := b.Claim("x", Input)
	caught := 0
	if err := p.WatchInput(slow, func(bool, sim.Time) { caught++ }); err != nil {
		t.Fatal(err)
	}
	s.RunFor(2 * sim.Microsecond)
	if err := p.Drive(true); err != nil {
		t.Fatal(err)
	}
	s.RunFor(sim.Millisecond)
	if caught != 1 {
		t.Fatalf("caught = %d, want 1", caught)
	}
}
