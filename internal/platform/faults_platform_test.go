package platform

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"odrips/internal/faults"
	"odrips/internal/power"
	"odrips/internal/sim"
	"odrips/internal/workload"
)

// runFaulted builds a platform, installs the plan, and runs n 30 s cycles.
func runFaulted(t testing.TB, cfg Config, plan string, n int) (*Platform, Result) {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := faults.Parse(plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.InjectFaults(fp); err != nil {
		t.Fatal(err)
	}
	res, err := p.RunCycles(workload.Fixed(n, 0, 30*sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

// TestFailDrainsScheduler is the regression test for the orphaned-event bug:
// before Scheduler.Clear, a latched flow error left every pending event (the
// armed wake, device-model tickers) queued, and they kept dispatching into a
// half-torn-down platform.
func TestFailDrainsScheduler(t *testing.T) {
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	var held sim.Event
	p.sched.After(1*sim.Second, "test.fail", func() {
		held = p.sched.After(time100ms(), "test.orphan", func() { ran = true })
		p.fail("test: injected failure")
	})
	if _, err := p.RunCycles(workload.Fixed(1, 0, 30*sim.Second)); err == nil {
		t.Fatal("RunCycles succeeded past an injected failure")
	}
	if ran {
		t.Error("orphaned event dispatched after the flow error latched")
	}
	if n := p.sched.Pending(); n != 0 {
		t.Errorf("%d events still pending after failure", n)
	}
	if held.Pending() {
		t.Error("held handle still pending after the drain")
	}
}

func time100ms() sim.Duration { return 100 * sim.Millisecond }

// TestEmptyPlanIsInert: installing the empty plan must leave results and
// traces byte-identical to a platform with no plane at all.
func TestEmptyPlanIsInert(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), ODRIPSConfig()} {
		base, bres := runFixed(t, cfg, 3)
		armed, ares := runFaulted(t, cfg, "", 3)
		if !reflect.DeepEqual(bres, ares) {
			t.Errorf("%v: empty plan changed the result:\n base %+v\narmed %+v", cfg.Techniques, bres, ares)
		}
		if !reflect.DeepEqual(base.FlowTrace(), armed.FlowTrace()) {
			t.Errorf("%v: empty plan changed the flow trace", cfg.Techniques)
		}
	}
}

// TestAbortEntryEarlySteps: an injected wake during the early entry steps
// unwinds the flow, wastes energy, and retries the full idle period.
func TestAbortEntryEarlySteps(t *testing.T) {
	_, base := runFixed(t, ODRIPSConfig(), 3)
	for step := 0; step <= 6; step++ {
		plan := faults.Plan{Injections: []faults.Injection{
			{Kind: faults.WakeDuringEntry, Cycle: 1, Step: step},
		}}
		p, res := runFaulted(t, ODRIPSConfig(), plan.String(), 3)
		if res.Faults.Fired != 1 {
			t.Errorf("step %d: fired = %d, want 1", step, res.Faults.Fired)
			continue
		}
		if res.Faults.EntryAborts != 1 {
			t.Errorf("step %d: aborts = %d, want 1", step, res.Faults.EntryAborts)
			continue
		}
		if res.Faults.AbortWastedUJ <= 0 {
			t.Errorf("step %d: wasted = %v uJ, want > 0", step, res.Faults.AbortWastedUJ)
		}
		// The wasted transition energy shows up in the totals.
		baseJ := base.AvgPowerMW * base.Duration.Seconds()
		gotJ := res.AvgPowerMW * res.Duration.Seconds()
		if gotJ <= baseJ {
			t.Errorf("step %d: run energy %.6f mJ not above fault-free %.6f mJ", step, gotJ, baseJ)
		}
		// The abort rollback was traced.
		var sawAbort bool
		for _, fs := range p.FlowTrace() {
			if fs.Flow == "abort" {
				sawAbort = true
			}
		}
		if !sawAbort {
			t.Errorf("step %d: no abort steps in the flow trace", step)
		}
		// The idle period was retried in full: same cycle count, all
		// planned wakes still happened, plus the injected one.
		if res.Cycles != 3 {
			t.Errorf("step %d: cycles = %d", step, res.Cycles)
		}
		if p.err != nil {
			t.Errorf("step %d: %v", step, p.err)
		}
	}
}

// TestAbortLateEntryStepsDeterministic: wakes injected after the timer
// hand-over quantize to a 32 kHz edge and may land once the platform is
// already resident — then they are ordinary early wakes, not aborts. Either
// way the run must complete and be deterministic.
func TestAbortLateEntryStepsDeterministic(t *testing.T) {
	for step := 7; step <= 8; step++ {
		plan := faults.Plan{Injections: []faults.Injection{
			{Kind: faults.WakeDuringEntry, Cycle: 1, Step: step},
		}}
		p1, r1 := runFaulted(t, ODRIPSConfig(), plan.String(), 3)
		p2, r2 := runFaulted(t, ODRIPSConfig(), plan.String(), 3)
		if r1.Faults.Fired != 1 {
			t.Errorf("step %d: fired = %d, want 1", step, r1.Faults.Fired)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("step %d: repeat run diverged", step)
		}
		if !reflect.DeepEqual(p1.FlowTrace(), p2.FlowTrace()) {
			t.Errorf("step %d: repeat trace diverged", step)
		}
	}
}

// TestWakeDuringExitAbsorbed: the chipset's wake latch is already consumed
// during exit, so an injected exit wake is absorbed without disturbing the
// flow — the marker still lands in the trace.
func TestWakeDuringExitAbsorbed(t *testing.T) {
	p, res := runFaulted(t, ODRIPSConfig(), "wakex@1.2", 3)
	if res.Faults.Fired != 1 {
		t.Fatalf("fired = %d, want 1", res.Faults.Fired)
	}
	if res.Faults.EntryAborts != 0 || res.Faults.Degradations != 0 {
		t.Fatalf("exit wake caused recovery edges: %+v", res.Faults)
	}
	var marked bool
	for _, fs := range p.FlowTrace() {
		if fs.Flow == "fault" && fs.Step == "wakex" {
			marked = true
		}
	}
	if !marked {
		t.Error("no wakex marker in the flow trace")
	}
	if res.Cycles != 3 || res.CtxVerified != 3 {
		t.Errorf("cycles=%d verified=%d", res.Cycles, res.CtxVerified)
	}
}

// TestMEETransientRetrySucceeds: a transient verification failure costs one
// retry and nothing else — no degradation, later cycles clean.
func TestMEETransientRetrySucceeds(t *testing.T) {
	_, base := runFixed(t, ODRIPSConfig(), 3)
	p, res := runFaulted(t, ODRIPSConfig(), "meefail@1", 3)
	if res.Faults.MEERetries != 1 || res.Faults.Degradations != 0 {
		t.Fatalf("stats = %+v, want 1 retry, 0 degradations", res.Faults)
	}
	if p.Degraded() {
		t.Fatal("transient failure degraded the platform")
	}
	if res.CtxVerified != 3 {
		t.Errorf("verified = %d, want 3", res.CtxVerified)
	}
	baseJ := base.AvgPowerMW * base.Duration.Seconds()
	gotJ := res.AvgPowerMW * res.Duration.Seconds()
	if gotJ < baseJ {
		t.Errorf("retry run energy %.6f mJ below fault-free %.6f mJ", gotJ, baseJ)
	}
	var retried bool
	for _, fs := range p.FlowTrace() {
		if fs.Flow == "fault" && fs.Step == "restore-ctx-retry" {
			retried = true
		}
	}
	if !retried {
		t.Error("no restore-ctx-retry marker in the flow trace")
	}
}

// TestMEEPersistentDegrades: a corrupted stored image fails both attempts
// and demotes the platform to DRIPS-with-retention-SRAM. Idle power for the
// remaining cycles rises above ODRIPS but stays at (or below) the
// WAKE-UP-OFF + AON-IO-GATE floor.
func TestMEEPersistentDegrades(t *testing.T) {
	_, odrips := runFixed(t, ODRIPSConfig(), 3)
	_, floor := runFixed(t, DefaultConfig().WithTechniques(WakeUpOff|AONIOGate), 3)

	p, res := runFaulted(t, ODRIPSConfig(), "meefail@1:1", 4)
	if res.Faults.MEERetries != 1 || res.Faults.Degradations != 1 {
		t.Fatalf("stats = %+v, want 1 retry, 1 degradation", res.Faults)
	}
	if !p.Degraded() {
		t.Fatal("persistent failure did not degrade the platform")
	}
	if res.Cycles != 4 {
		t.Fatalf("cycles = %d", res.Cycles)
	}
	// Average idle power mixes one pristine ODRIPS cycle with degraded
	// ones, so it sits strictly between the two pure levels.
	idle := res.IdlePowerMW()
	if idle <= odrips.IdlePowerMW() {
		t.Errorf("degraded idle %.3f mW not above ODRIPS %.3f mW", idle, odrips.IdlePowerMW())
	}
	if idle > floor.IdlePowerMW()+0.01 {
		t.Errorf("degraded idle %.3f mW above the retention-SRAM floor %.3f mW", idle, floor.IdlePowerMW())
	}
	var demoted bool
	for _, fs := range p.FlowTrace() {
		if fs.Flow == "fault" && fs.Step == "degrade-retention-sram" {
			demoted = true
		}
	}
	if !demoted {
		t.Error("no degrade-retention-sram marker in the flow trace")
	}
}

// TestBitFlipTriggersRetryThenDegrade: a retention error inside the
// protected region fails MEE verification on both attempts.
func TestBitFlipTriggersRetryThenDegrade(t *testing.T) {
	p, res := runFaulted(t, ODRIPSConfig(), "bitflip@1:12345", 3)
	if res.Faults.Fired != 1 {
		t.Fatalf("fired = %d, want 1", res.Faults.Fired)
	}
	if res.Faults.MEERetries != 1 || res.Faults.Degradations != 1 {
		t.Fatalf("stats = %+v, want retry then degradation", res.Faults)
	}
	if !p.Degraded() {
		t.Fatal("platform not degraded after persistent corruption")
	}
}

// TestBitFlipSkippedWithoutProtectedRegion: on the baseline there is no
// off-chip context to corrupt; the injection counts as skipped.
func TestBitFlipSkippedWithoutProtectedRegion(t *testing.T) {
	_, res := runFaulted(t, DefaultConfig(), "bitflip@1:77", 3)
	if res.Faults.Skipped != 1 || res.Faults.Fired != 0 {
		t.Fatalf("stats = %+v, want 1 skipped", res.Faults)
	}
	if res.Faults.Degradations != 0 {
		t.Fatalf("baseline degraded: %+v", res.Faults)
	}
}

// TestDriftTriggersRecalibration: a slow-crystal excursion beyond the
// threshold is caught by the exit flow's Step cross-check exactly once —
// recalibration re-anchors the stored calibration to the drifted crystal.
func TestDriftTriggersRecalibration(t *testing.T) {
	_, base := runFixed(t, ODRIPSConfig(), 3)
	p, res := runFaulted(t, ODRIPSConfig(), "drift@1:1000000", 4)
	if res.Faults.Fired != 1 {
		t.Fatalf("fired = %d, want 1", res.Faults.Fired)
	}
	if res.Faults.Recalibrations != 1 {
		t.Fatalf("recalibrations = %d, want 1", res.Faults.Recalibrations)
	}
	var recal bool
	for _, fs := range p.FlowTrace() {
		if fs.Flow == "exit" && fs.Step == "recalibrate" {
			recal = true
			if fs.Duration < p.bud.RecalWindow {
				t.Errorf("recalibration window %v below budget %v", fs.Duration, p.bud.RecalWindow)
			}
		}
	}
	if !recal {
		t.Error("no recalibrate step in the flow trace")
	}
	if res.ExitMax <= base.ExitMax {
		t.Errorf("recalibrating exit %v not above fault-free max %v", res.ExitMax, base.ExitMax)
	}
}

// TestDriftBelowThresholdInvisible: a small excursion stays within the
// cross-check budget; no recalibration, no new steps.
func TestDriftBelowThresholdInvisible(t *testing.T) {
	p, res := runFaulted(t, ODRIPSConfig(), "drift@1:5000", 3)
	if res.Faults.Fired != 1 {
		t.Fatalf("fired = %d, want 1", res.Faults.Fired)
	}
	if res.Faults.Recalibrations != 0 {
		t.Fatalf("recalibrations = %d, want 0", res.Faults.Recalibrations)
	}
	for _, fs := range p.FlowTrace() {
		if fs.Step == "recalibrate" {
			t.Fatal("recalibrate step recorded below threshold")
		}
	}
}

// TestFETGlitchCostsExtraSlew: the re-drive adds one slew window to the
// exit and is visible in the trace.
func TestFETGlitchCostsExtraSlew(t *testing.T) {
	p, res := runFaulted(t, ODRIPSConfig(), "fetglitch@1", 3)
	if res.Faults.FETRetries != 1 {
		t.Fatalf("fet retries = %d, want 1", res.Faults.FETRetries)
	}
	// The glitched release takes two slew windows instead of one; exit
	// durations otherwise vary only with 32 kHz edge alignment, so compare
	// the step itself, not whole-exit latencies.
	maxRelease := func(trace []FlowStep) sim.Duration {
		var d sim.Duration
		for _, fs := range trace {
			if fs.Step == "release-fet" && fs.Duration > d {
				d = fs.Duration
			}
		}
		return d
	}
	if got := maxRelease(p.FlowTrace()); got < 2*p.bud.FETSlew {
		t.Errorf("glitched release-fet took %v, want >= %v", got, 2*p.bud.FETSlew)
	}
	var marked bool
	for _, fs := range p.FlowTrace() {
		if fs.Flow == "fault" && fs.Step == "release-fet-retry" {
			marked = true
		}
	}
	if !marked {
		t.Error("no release-fet-retry marker in the flow trace")
	}
}

// TestFaultedRunsDeterministic: a fixed (config, workload, plan) triple
// produces byte-identical results and traces across repeat runs.
func TestFaultedRunsDeterministic(t *testing.T) {
	plans := []string{
		"wake@1.3",
		"meefail@0:1;fetglitch@2",
		"drift@0:2000000;wake@2.5",
		"bitflip@1:999;wakex@2.1",
	}
	for _, plan := range plans {
		p1, r1 := runFaulted(t, ODRIPSConfig(), plan, 3)
		p2, r2 := runFaulted(t, ODRIPSConfig(), plan, 3)
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("plan %q: results diverged", plan)
		}
		if !reflect.DeepEqual(p1.FlowTrace(), p2.FlowTrace()) {
			t.Errorf("plan %q: traces diverged", plan)
		}
	}
}

// TestUnreachedInjectionsStayPlanned: cycles beyond the run never fire.
func TestUnreachedInjectionsStayPlanned(t *testing.T) {
	_, res := runFaulted(t, ODRIPSConfig(), "wake@7.2;meefail@9", 3)
	if res.Faults.Planned != 2 || res.Faults.Fired != 0 || res.Faults.Skipped != 0 {
		t.Fatalf("stats = %+v, want 2 planned, none fired", res.Faults)
	}
}

// TestInjectFaultsValidates: invalid plans and mid-flow installs are
// rejected.
func TestInjectFaultsValidates(t *testing.T) {
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := faults.Plan{Injections: []faults.Injection{{Kind: faults.MEEFail, Cycle: 0, Arg: 9}}}
	if err := p.InjectFaults(bad); err == nil {
		t.Fatal("invalid plan accepted")
	}
	if err := p.InjectFaults(faults.Plan{}); err != nil {
		t.Fatal(err)
	}
}

// TestAbortEnergyAccounting: the run's total battery energy equals the
// tracker's per-state sum even across abort rollbacks (no energy is lost or
// double-counted by the unwind).
func TestAbortEnergyAccounting(t *testing.T) {
	p, err := New(ODRIPSConfig())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.Parse("wake@1.4")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.InjectFaults(plan); err != nil {
		t.Fatal(err)
	}
	// Diff the meter across the run: energy spent during New (the initial
	// calibration) predates the tracker and is out of scope.
	start := p.meter.Snapshot()
	res, err := p.RunCycles(workload.Fixed(3, 0, 30*sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	var stateJ float64
	for _, st := range power.States() {
		stateJ += res.StateEnergyJ[st]
	}
	meterJ := p.meter.Snapshot().Since(start).TotalJ()
	if math.Abs(stateJ-meterJ) > 1e-9*math.Max(1, meterJ) {
		t.Errorf("state energy %.9f J != meter delta %.9f J", stateJ, meterJ)
	}
	if res.Faults.EntryAborts != 1 {
		t.Fatalf("aborts = %d, want 1", res.Faults.EntryAborts)
	}
}

// TestEMRAMPersistentDegrades: the eMRAM variant degrades the same way.
func TestEMRAMPersistentDegrades(t *testing.T) {
	cfg := ODRIPSConfig()
	cfg.Techniques &^= CtxSGXDRAM
	cfg.CtxInEMRAM = true
	p, res := runFaulted(t, cfg, "meefail@1:1", 3)
	if res.Faults.MEERetries != 1 || res.Faults.Degradations != 1 {
		t.Fatalf("stats = %+v, want retry then degradation", res.Faults)
	}
	if !p.Degraded() {
		t.Fatal("eMRAM platform not degraded")
	}
	var sawSRAMSave bool
	for _, fs := range p.FlowTrace() {
		if fs.Step == "save-ctx-sram" {
			sawSRAMSave = true
		}
	}
	if !sawSRAMSave {
		t.Error("degraded cycles did not save context to retention SRAM")
	}
}

// TestThermalWakeWithoutAONIOGate is the regression test for a liveness
// bug the property harness found: with WAKE-UP-OFF but not AON-IO-GATE,
// the thermal watch stayed on the 24 MHz crystal the entry flow shuts, so
// an EC thermal wake during idle sampled a dead oscillator and was lost
// (the run stalled). The watch must follow the clock to the slow crystal
// at entry and back at exit.
func TestThermalWakeWithoutAONIOGate(t *testing.T) {
	for _, tech := range []Technique{WakeUpOff, WakeUpOff | CtxSGXDRAM} {
		cfg := ODRIPSConfig()
		cfg.Techniques = tech
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cycles := []workload.Cycle{
			{Idle: 30 * sim.Second, Wake: workload.WakeThermal},
			{Idle: 30 * sim.Second, Wake: workload.WakeTimer},
			{Idle: 30 * sim.Second, Wake: workload.WakeThermal},
		}
		res, err := p.RunCycles(cycles)
		if err != nil {
			t.Fatalf("%v: %v", tech, err)
		}
		if res.WakeCounts["thermal"] != 2 {
			t.Errorf("%v: thermal wakes = %d, want 2", tech, res.WakeCounts["thermal"])
		}
	}
}

// TestFaultStatsStringer keeps the stats printable for the CLI summary.
func TestFaultStatsStringer(t *testing.T) {
	s := FaultStats{Planned: 3, Fired: 2, Skipped: 1, EntryAborts: 1}.String()
	for _, want := range []string{"planned 3", "fired 2", "skipped 1", "aborts 1"} {
		if !strings.Contains(s, want) {
			t.Errorf("FaultStats.String() = %q, missing %q", s, want)
		}
	}
}
