package timer

import (
	"math"
	"testing"
	"testing/quick"

	"odrips/internal/clock"
	"odrips/internal/fixedpoint"
	"odrips/internal/sim"
)

// rig is a standard two-crystal test bench.
type rig struct {
	sched   *sim.Scheduler
	fastOsc *clock.Oscillator
	slowOsc *clock.Oscillator
	fastDom *clock.Domain
}

func newRig(fastPPB, slowPPB int64) *rig {
	s := sim.NewScheduler()
	fo := clock.NewOscillator(s, "xtal24", 24_000_000, fastPPB, 0)
	so := clock.NewOscillator(s, "xtal32", 32_768, slowPPB, 0)
	fo.PowerOn()
	so.PowerOn()
	return &rig{sched: s, fastOsc: fo, slowOsc: so, fastDom: clock.NewDomain("fast", fo)}
}

func (r *rig) step(t *testing.T) fixedpoint.Q {
	t.Helper()
	res, err := CalibrateNow(r.sched, r.fastOsc, r.slowOsc)
	if err != nil {
		t.Fatal(err)
	}
	return res.Step
}

func TestFastCounterCounts(t *testing.T) {
	r := newRig(0, 0)
	c := NewFastCounter(r.sched, "tsc", r.fastDom)
	if err := c.Set(1000); err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(sim.Millisecond) // 24k cycles
	if got := c.Read(); got != 1000+24_000 {
		t.Fatalf("Read = %d, want 25000", got)
	}
	c.Stop()
	frozen := c.Read()
	r.sched.RunFor(sim.Millisecond)
	if c.Read() != frozen {
		t.Fatal("stopped counter advanced")
	}
	if c.Running() {
		t.Fatal("Running() true after Stop")
	}
}

func TestFastCounterSetRequiresClock(t *testing.T) {
	r := newRig(0, 0)
	r.fastDom.Gate()
	c := NewFastCounter(r.sched, "tsc", r.fastDom)
	if err := c.Set(5); err == nil {
		t.Fatal("Set with gated clock succeeded")
	}
}

func TestFastCounterTimeOfValue(t *testing.T) {
	r := newRig(0, 0)
	c := NewFastCounter(r.sched, "tsc", r.fastDom)
	if err := c.Set(0); err != nil {
		t.Fatal(err)
	}
	at, ok := c.TimeOfValue(24_000_000)
	if !ok {
		t.Fatal("TimeOfValue failed")
	}
	if at != sim.Time(sim.Second) {
		t.Fatalf("reach 24e6 at %v, want 1s", at)
	}
	// Already-reached target: now.
	at, ok = c.TimeOfValue(0)
	if !ok || at != r.sched.Now() {
		t.Fatalf("reached target gave %v,%v", at, ok)
	}
	// Verify the returned instant is exact: counter reads target there and
	// target-1 just before.
	var got, before uint64
	target := uint64(24_000_000)
	wakeAt, _ := c.TimeOfValue(target)
	r.sched.At(wakeAt-1, "before", func() { before = c.Read() })
	r.sched.At(wakeAt, "at", func() { got = c.Read() })
	r.sched.Run()
	if got != target || before != target-1 {
		t.Fatalf("at wake: %d (want %d), just before: %d (want %d)", got, target, before, target-1)
	}
}

func TestSlowCounterSteps(t *testing.T) {
	r := newRig(0, 0)
	step := r.step(t)
	c := NewSlowCounter(r.sched, "slow", r.slowOsc, step)
	if err := c.Load(0); err != nil {
		t.Fatal(err)
	}
	// One simulated second = 32768 slow edges = 32768 * 732.421875 = 24e6.
	r.sched.RunFor(sim.Second)
	if got := c.Read(); got != 24_000_000 {
		t.Fatalf("slow counter after 1s = %d, want 24000000", got)
	}
}

func TestSlowCounterLoadClearsFraction(t *testing.T) {
	r := newRig(0, 0)
	c := NewSlowCounter(r.sched, "slow", r.slowOsc, r.step(t))
	if err := c.Load(999); err != nil {
		t.Fatal(err)
	}
	if c.Read() != 999 || c.acc.Frac() != 0 {
		t.Fatalf("after load: %d + %d", c.Read(), c.acc.Frac())
	}
}

func TestSlowCounterTimeOfValue(t *testing.T) {
	r := newRig(0, 0)
	c := NewSlowCounter(r.sched, "slow", r.slowOsc, r.step(t))
	if err := c.Load(0); err != nil {
		t.Fatal(err)
	}
	target := uint64(24_000_000) // one second of fast time
	at, ok := c.TimeOfValue(target)
	if !ok {
		t.Fatal("TimeOfValue failed")
	}
	var got, before uint64
	r.sched.At(at-1, "before", func() { before = c.Read() })
	r.sched.At(at, "at", func() { got = c.Read() })
	r.sched.Run()
	if got < target {
		t.Fatalf("at wake instant counter = %d < target %d", got, target)
	}
	if before >= target {
		t.Fatalf("counter reached target before wake instant: %d >= %d", before, target)
	}
}

// Property: stepsToReach matches brute-force accumulation.
func TestStepsToReachProperty(t *testing.T) {
	f := func(rawSeed uint32, fracSeed uint32, deltaSeed uint16) bool {
		step := fixedpoint.New(uint64(rawSeed%(1<<25))+(1<<21), 21) // step >= 1.0
		acc := fixedpoint.NewAcc(21)
		acc.SetInt(100)
		// Pre-roll a random fraction.
		acc.AddN(fixedpoint.New(uint64(fracSeed)%(1<<21), 21), 1)
		start := acc.Floor()
		target := start + uint64(deltaSeed%5000) + 1
		n, err := stepsToReach(acc, step, target)
		if err != nil {
			return false
		}
		// Brute force from a copy.
		brute := fixedpoint.NewAcc(21)
		brute.SetInt(0)
		brute.AddN(fixedpoint.New(acc.Frac(), 21), 1)
		brute.Int = acc.Floor()
		var count uint64
		for brute.Floor() < target {
			brute.AddN(step, 1)
			count++
			if count > 1<<22 {
				return false
			}
		}
		return n == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCalibrationPaperValues(t *testing.T) {
	r := newRig(0, 0)
	res, err := CalibrateNow(r.sched, r.fastOsc, r.slowOsc)
	if err != nil {
		t.Fatal(err)
	}
	if res.IntBits != 10 || res.FracBits != 21 {
		t.Fatalf("m,f = %d,%d; want 10,21", res.IntBits, res.FracBits)
	}
	if res.NSlow != 1<<21 {
		t.Fatalf("N_slow = %d, want 2^21", res.NSlow)
	}
	// Perfect crystals: N_fast = 2^21 * 24e6/32768 = 2^21 * 732.421875,
	// which is exactly 1536000000.
	if res.NFast != 1_536_000_000 {
		t.Fatalf("N_fast = %d, want 1536000000", res.NFast)
	}
	if got := res.Step.Float(); math.Abs(got-732.421875) > 1e-9 {
		t.Fatalf("step = %v, want 732.421875", got)
	}
	// Window is 2^21 slow cycles = 64 s.
	if w := res.Window.Seconds(); math.Abs(w-64) > 1e-6 {
		t.Fatalf("window = %v s, want 64", w)
	}
	if ppb := res.DriftPPB(); ppb > 1.0 {
		t.Fatalf("drift = %v ppb, want <= 1", ppb)
	}
}

func TestCalibrationRequiresStableOscillators(t *testing.T) {
	s := sim.NewScheduler()
	fo := clock.NewOscillator(s, "f", 24_000_000, 0, sim.Millisecond)
	so := clock.NewOscillator(s, "s", 32_768, 0, 0)
	so.PowerOn()
	fo.PowerOn() // stabilizes at 1ms, not yet stable
	if _, err := CalibrateNow(s, fo, so); err == nil {
		t.Fatal("calibration with unstable oscillator succeeded")
	}
}

func TestCalibrationTracksCrystalError(t *testing.T) {
	// A fast crystal running +50 ppm must yield a proportionally larger
	// step so that timekeeping follows the *actual* clock ratio.
	r := newRig(50_000, 0)
	res, err := CalibrateNow(r.sched, r.fastOsc, r.slowOsc)
	if err != nil {
		t.Fatal(err)
	}
	want := 732.421875 * (1 + 50e-6)
	if got := res.Step.Float(); math.Abs(got-want) > 1e-3 {
		t.Fatalf("step with +50ppm fast crystal = %v, want ~%v", got, want)
	}
}

func TestCalibratorRealLatency(t *testing.T) {
	r := newRig(0, 0)
	cal := NewCalibrator(r.sched, r.fastOsc, r.slowOsc)
	var got *CalibrationResult
	if err := cal.Start(func(res CalibrationResult) { got = &res }); err != nil {
		t.Fatal(err)
	}
	if !cal.busy {
		t.Fatal("calibrator not busy after Start")
	}
	if err := cal.Start(func(CalibrationResult) {}); err == nil {
		t.Fatal("second Start while busy succeeded")
	}
	r.sched.RunFor(63 * sim.Second)
	if got != nil {
		t.Fatal("calibration completed before its 64 s window")
	}
	r.sched.RunFor(2 * sim.Second)
	if got == nil {
		t.Fatal("calibration did not complete")
	}
	if cal.busy {
		t.Fatal("calibrator state wrong after completion")
	}
	if got.NFast != 1_536_000_000 {
		t.Fatalf("N_fast = %d", got.NFast)
	}
}

// driftAtEdges measures |slow-estimate - true fast count| at slow-clock
// edges over a window, returning the max absolute error in fast counts.
func driftAtEdges(t *testing.T, fastPPB, slowPPB int64, window sim.Duration) float64 {
	t.Helper()
	r := newRig(fastPPB, slowPPB)
	step := r.step(t)
	// Reference fast counter that never stops.
	ref := NewFastCounter(r.sched, "ref", r.fastDom)
	slow := NewSlowCounter(r.sched, "slow", r.slowOsc, step)
	// Align the start to a slow edge so the load is phase-exact, as the
	// hardware protocol does.
	var maxErr float64
	_, t0, ok := r.slowOsc.NextEdge(r.sched.Now())
	if !ok {
		t.Fatal("no slow edge")
	}
	r.sched.At(t0, "start", func() {
		if err := ref.Set(0); err != nil {
			t.Error(err)
		}
		if err := slow.Load(0); err != nil {
			t.Error(err)
		}
	})
	// Sample at slow edges: every 1024 edges to keep the event count low.
	sampleEvery := 1024 * sim.Duration(30517578) // ~31ms, just off edges
	for at := t0.Add(sampleEvery); at.Before(t0.Add(window)); at = at.Add(sampleEvery) {
		r.sched.At(at, "sample", func() {
			// Move exactly onto the previous slow edge for the comparison.
			e := math.Abs(float64(slow.Read()) - float64(ref.Read()))
			if e > maxErr {
				maxErr = e
			}
		})
	}
	r.sched.Run()
	return maxErr
}

func TestSlowTimerDriftWithinPPBBudget(t *testing.T) {
	// Over ~42 s (1e9 fast cycles) the accumulated drift must stay within
	// ~1 count from step quantization plus one slow-period of sampling lag
	// (the slow timer only updates every 30.5 us; between updates it lags
	// by up to one Step = ~733 counts).
	const window = 42 * sim.Second
	for _, tc := range []struct {
		name             string
		fastPPB, slowPPB int64
	}{
		{"perfect", 0, 0},
		{"fast+20ppm", 20_000, 0},
		{"slow-35ppm", 0, -35_000},
		{"both", -12_000, 8_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			maxErr := driftAtEdges(t, tc.fastPPB, tc.slowPPB, window)
			// Budget: one Step of sampling granularity + 2 counts of
			// long-run drift (1 ppb of 1e9 cycles = 1 count).
			if maxErr > 736 {
				t.Fatalf("max drift %v counts exceeds budget", maxErr)
			}
		})
	}
}

func TestSwitchEnterSlowAtEdge(t *testing.T) {
	r := newRig(0, 0)
	u := NewUnit(r.sched, r.fastDom, r.slowOsc, r.step(t))
	var events []string
	u.Trace = func(ev string, at sim.Time, v uint64) { events = append(events, ev) }
	r.sched.RunFor(5 * sim.Microsecond) // desync from edge 0
	var switchedAt sim.Time
	if err := u.EnterSlow(1_000_000, func(at sim.Time) { switchedAt = at }); err != nil {
		t.Fatal(err)
	}
	if u.Mode() != ModeEnteringSlow || !u.SwitchAsserted() {
		t.Fatalf("mid-protocol mode=%s switch=%v", u.Mode(), u.SwitchAsserted())
	}
	r.sched.Run()
	if u.Mode() != ModeSlow {
		t.Fatalf("mode = %s, want slow", u.Mode())
	}
	// The switch must land exactly on a 32 kHz edge.
	k, at, _ := r.slowOsc.NextEdge(switchedAt)
	if at != switchedAt {
		t.Fatalf("switch at %v, not on a slow edge (next edge %d at %v)", switchedAt, k, at)
	}
	// Value continuity: slow timer holds fast value from the edge.
	wantV := uint64(1_000_000) + r.fastOsc.EdgesBetween(sim.Time(5*sim.Microsecond), switchedAt)
	if got := u.Slow.Read(); got != wantV {
		t.Fatalf("slow value = %d, want %d", got, wantV)
	}
	if len(events) != 2 || events[0] != "assert-switch" || events[1] != "slow-loaded" {
		t.Fatalf("trace = %v", events)
	}
}

func TestSwitchEnterSlowWrongMode(t *testing.T) {
	r := newRig(0, 0)
	u := NewUnit(r.sched, r.fastDom, r.slowOsc, r.step(t))
	if err := u.EnterSlow(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := u.EnterSlow(0, nil); err == nil {
		t.Fatal("double EnterSlow succeeded")
	}
}

func TestSwitchFullRoundTrip(t *testing.T) {
	r := newRig(0, 0)
	u := NewUnit(r.sched, r.fastDom, r.slowOsc, r.step(t))
	if err := u.EnterSlow(0, func(sim.Time) {
		// Chipset PMU: gate fast clock, power off crystal.
		r.fastDom.Gate()
		r.fastOsc.PowerOff()
	}); err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(10 * sim.Second)
	if u.Mode() != ModeSlow {
		t.Fatalf("mode = %s", u.Mode())
	}
	if err := u.ExitFast(nil); err == nil {
		t.Fatal("ExitFast with crystal off succeeded")
	}
	// Power crystal back on (no startup latency in this rig), ungate.
	r.fastOsc.PowerOn()
	r.fastDom.Ungate()
	var value uint64
	var exitAt sim.Time
	if err := u.ExitFast(func(v uint64, at sim.Time) { value, exitAt = v, at }); err != nil {
		t.Fatal(err)
	}
	r.sched.Run()
	if u.Mode() != ModeFast {
		t.Fatalf("mode after exit = %s", u.Mode())
	}
	// ~10 s at 24 MHz = ~240e6 counts; allow one slow period of hand-over
	// slack on each side.
	if value < 239_900_000 || value > 240_100_000 {
		t.Fatalf("timer value after round trip = %d, want ~240e6", value)
	}
	_, at, _ := r.slowOsc.NextEdge(exitAt)
	if at != exitAt {
		t.Fatalf("exit hand-over not on a slow edge: %v", exitAt)
	}
}

func TestSwitchExitWaitsForCrystalStartup(t *testing.T) {
	s := sim.NewScheduler()
	fo := clock.NewOscillator(s, "xtal24", 24_000_000, 0, 100*sim.Microsecond)
	so := clock.NewOscillator(s, "xtal32", 32_768, 0, 0)
	fo.PowerOn()
	so.PowerOn()
	s.RunFor(sim.Millisecond) // fast crystal stable
	dom := clock.NewDomain("fast", fo)
	res, err := CalibrateNow(s, fo, so)
	if err != nil {
		t.Fatal(err)
	}
	u := NewUnit(s, dom, so, res.Step)
	if err := u.EnterSlow(0, func(sim.Time) { dom.Gate(); fo.PowerOff() }); err != nil {
		t.Fatal(err)
	}
	s.RunFor(sim.Second)
	// Exit: crystal needs 100us to stabilize; the protocol must keep
	// retrying slow edges until the fast domain runs.
	fo.PowerOn()
	dom.Ungate()
	var exitAt sim.Time
	if err := u.ExitFast(func(_ uint64, at sim.Time) { exitAt = at }); err != nil {
		t.Fatal(err)
	}
	stableAt := s.Now().Add(fo.EpochOffset(s.Now()))
	s.Run()
	if exitAt == 0 {
		t.Fatal("exit never completed")
	}
	if exitAt.Before(stableAt) {
		t.Fatalf("exit at %v before crystal stable at %v", exitAt, stableAt)
	}
}

// Property: Unit.Now() is monotonic non-decreasing across repeated
// enter/exit cycles with random idle durations, and the cumulative error
// against a reference clock stays bounded by the per-cycle hand-over slack.
func TestSwitchMonotonicityProperty(t *testing.T) {
	f := func(idles []uint16) bool {
		if len(idles) > 8 {
			idles = idles[:8]
		}
		r := newRig(3_000, -2_000) // imperfect crystals
		refOsc := clock.NewOscillator(r.sched, "ref", 24_000_000, 3_000, 0)
		refOsc.PowerOn()
		refDom := clock.NewDomain("ref", refOsc)
		ref := NewFastCounter(r.sched, "ref", refDom)
		if err := ref.Set(0); err != nil {
			return false
		}
		res, err := CalibrateNow(r.sched, r.fastOsc, r.slowOsc)
		if err != nil {
			return false
		}
		u := NewUnit(r.sched, r.fastDom, r.slowOsc, res.Step)
		last := uint64(0)
		okAll := true
		check := func() {
			v := u.Now()
			if v < last {
				okAll = false
			}
			last = v
		}
		if err := u.Fast.Set(0); err != nil {
			return false
		}
		u.mode = ModeFast
		for _, idle := range idles {
			idleDur := sim.Duration(idle%2000+1) * sim.Microsecond
			done := false
			if err := u.EnterSlow(u.Fast.Read(), func(sim.Time) { done = true }); err != nil {
				return false
			}
			r.sched.RunFor(40 * sim.Microsecond) // at most ~1.3 slow periods
			if !done {
				r.sched.RunFor(40 * sim.Microsecond)
			}
			check()
			r.sched.RunFor(idleDur)
			check()
			exited := false
			if err := u.ExitFast(func(uint64, sim.Time) { exited = true }); err != nil {
				return false
			}
			for i := 0; i < 4 && !exited; i++ {
				r.sched.RunFor(40 * sim.Microsecond)
			}
			if !exited {
				return false
			}
			check()
		}
		// Cumulative error bound: each hand-over loses < 1 count to the
		// floor copy plus calibration drift; allow 4 counts per cycle.
		refV := ref.Read()
		diff := math.Abs(float64(u.Now()) - float64(refV))
		return okAll && diff <= float64(len(idles)*4+800) // +1 slow-period lag when in slow mode
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestUnitWakeAt(t *testing.T) {
	r := newRig(0, 0)
	u := NewUnit(r.sched, r.fastDom, r.slowOsc, r.step(t))
	if err := u.EnterSlow(0, nil); err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(sim.Millisecond)
	var wokeAt sim.Time
	var wokeVal uint64
	target := uint64(24_000_000)
	if _, err := u.WakeAt(target, "wake", func() {
		wokeAt = r.sched.Now()
		wokeVal = u.Now()
	}); err != nil {
		t.Fatal(err)
	}
	r.sched.Run()
	if wokeVal < target {
		t.Fatalf("woke at value %d < target %d", wokeVal, target)
	}
	if math.Abs(sim.Duration(wokeAt).Seconds()-1.0) > 0.001 {
		t.Fatalf("woke at %v, want ~1s", wokeAt)
	}
}

func TestUnitWakeAtDuringHandoverErrors(t *testing.T) {
	r := newRig(0, 0)
	u := NewUnit(r.sched, r.fastDom, r.slowOsc, r.step(t))
	if err := u.EnterSlow(0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := u.WakeAt(100, "w", func() {}); err == nil {
		t.Fatal("WakeAt during hand-over succeeded")
	}
}

func BenchmarkSlowCounterRead(b *testing.B) {
	s := sim.NewScheduler()
	fo := clock.NewOscillator(s, "f", 24_000_000, 0, 0)
	so := clock.NewOscillator(s, "s", 32_768, 0, 0)
	fo.PowerOn()
	so.PowerOn()
	res, err := CalibrateNow(s, fo, so)
	if err != nil {
		b.Fatal(err)
	}
	c := NewSlowCounter(s, "slow", so, res.Step)
	if err := c.Load(0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(sim.Microsecond, "adv", func() {})
		s.RunFor(sim.Microsecond)
		c.Read()
	}
}
