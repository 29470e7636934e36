package platform

import (
	"reflect"
	"testing"

	"odrips/internal/sim"
	"odrips/internal/workload"
)

// runWithMode builds a platform for cfg, forces the fast-forward mode, and
// runs the cycles, returning everything observable.
func runWithMode(t *testing.T, cfg Config, mode FFMode, cycles []workload.Cycle) (Result, []FlowStep, FFStats) {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := p.SetFastForward(mode); err != nil {
		t.Fatalf("SetFastForward: %v", err)
	}
	res, err := p.RunCycles(cycles)
	if err != nil {
		t.Fatalf("RunCycles(%v): %v", mode, err)
	}
	return res, p.FlowTrace(), p.FFStats()
}

// zeroPPBConfigs are configurations whose crystal phases recur across
// steady-state cycles, so whole-cycle replay can engage.
func zeroPPBConfigs() map[string]Config {
	mk := func(tech Technique) Config {
		c := DefaultConfig()
		c.XtalFastPPB = 0
		c.XtalSlowPPB = 0
		c.Techniques = tech
		return c
	}
	return map[string]Config{
		"baseline":     mk(0),
		"wakeupoff":    mk(WakeUpOff),
		"ctx-sgx-dram": mk(WakeUpOff | CtxSGXDRAM),
		"odrips":       mk(ODRIPS),
	}
}

// TestCycleReplayByteIdentical is the core tentpole assertion: with the
// cycle memo engaged, every Result field and the flow trace are
// byte-identical to a full simulation.
func TestCycleReplayByteIdentical(t *testing.T) {
	for name, cfg := range zeroPPBConfigs() {
		t.Run(name, func(t *testing.T) {
			cycles := workload.Fixed(40, 0, 30*sim.Second)
			resOff, traceOff, statsOff := runWithMode(t, cfg, FFOff, cycles)
			resOn, traceOn, statsOn := runWithMode(t, cfg, FFOn, cycles)
			if statsOff.CyclesReplayed != 0 {
				t.Fatalf("FFOff replayed %d cycles", statsOff.CyclesReplayed)
			}
			if !reflect.DeepEqual(resOff, resOn) {
				t.Errorf("Result diverged:\noff: %+v\non:  %+v", resOff, resOn)
			}
			if !reflect.DeepEqual(traceOff, traceOn) {
				t.Errorf("FlowTrace diverged: off %d steps, on %d steps", len(traceOff), len(traceOn))
				for i := range traceOff {
					if i < len(traceOn) && !reflect.DeepEqual(traceOff[i], traceOn[i]) {
						t.Errorf("first divergent step %d:\noff: %+v\non:  %+v", i, traceOff[i], traceOn[i])
						break
					}
				}
			}
			t.Logf("recorded=%d replayed=%d", statsOn.CyclesRecorded, statsOn.CyclesReplayed)
			if statsOn.CyclesReplayed == 0 {
				t.Errorf("cycle replay never engaged (recorded %d)", statsOn.CyclesRecorded)
			}
		})
	}
}

// TestCycleReplayMixedWakeSources exercises memo keys that differ only in
// the wake kind, including the external/thermal wake paths through the
// chipset.
func TestCycleReplayMixedWakeSources(t *testing.T) {
	cfg := zeroPPBConfigs()["odrips"]
	var cycles []workload.Cycle
	for i := 0; i < 30; i++ {
		w := workload.WakeTimer
		switch i % 6 {
		case 2:
			w = workload.WakeExternal
		case 4:
			w = workload.WakeThermal
		}
		cycles = append(cycles, workload.Cycle{Idle: 30 * sim.Second, Wake: w})
	}
	resOff, traceOff, _ := runWithMode(t, cfg, FFOff, cycles)
	resOn, traceOn, statsOn := runWithMode(t, cfg, FFOn, cycles)
	if !reflect.DeepEqual(resOff, resOn) {
		t.Errorf("Result diverged:\noff: %+v\non:  %+v", resOff, resOn)
	}
	if !reflect.DeepEqual(traceOff, traceOn) {
		t.Errorf("FlowTrace diverged")
	}
	t.Logf("recorded=%d replayed=%d", statsOn.CyclesRecorded, statsOn.CyclesReplayed)
}

// TestCycleReplayJitteredIdle keeps the cycle parameters unique per cycle
// (jittered idle); the cycle memo then finds no run-length batches, but the
// MEE op memo still engages, and results stay byte-identical.
func TestCycleReplayJitteredIdle(t *testing.T) {
	cfg := ODRIPSConfig() // default (non-zero) ppb: the realistic case
	cycles := workload.ConnectedStandby(25, 7)
	resOff, traceOff, _ := runWithMode(t, cfg, FFOff, cycles)
	resOn, traceOn, statsOn := runWithMode(t, cfg, FFOn, cycles)
	if !reflect.DeepEqual(resOff, resOn) {
		t.Errorf("Result diverged:\noff: %+v\non:  %+v", resOff, resOn)
	}
	if !reflect.DeepEqual(traceOff, traceOn) {
		t.Errorf("FlowTrace diverged")
	}
	if statsOn.MEEOpsReplayed == 0 {
		t.Errorf("MEE op replay never engaged")
	}
}

// TestCycleReplayShallowCycles replays cycles that park in a shallow
// C-state (no flow, no tracker transition) — the open-interval handling in
// the tracker snapshot is what keeps these exact. Shallow cycles end at an
// arbitrary (not edge-aligned) instant, so an all-shallow workload never
// revisits a crystal phase and runs in full; interleaving deep cycles
// re-anchors the fast crystal every exit and makes the pattern recur.
func TestCycleReplayShallowCycles(t *testing.T) {
	cfg := zeroPPBConfigs()["odrips"]
	var cycles []workload.Cycle
	for i := 0; i < 15; i++ {
		cycles = append(cycles,
			workload.Cycle{Idle: 30 * sim.Second, Wake: workload.WakeTimer},
			// A short idle interval fails the TNTE gate and parks shallow.
			workload.Cycle{Idle: 2 * sim.Millisecond, Wake: workload.WakeTimer},
		)
	}
	resOff, traceOff, _ := runWithMode(t, cfg, FFOff, cycles)
	resOn, traceOn, statsOn := runWithMode(t, cfg, FFOn, cycles)
	if !reflect.DeepEqual(resOff, resOn) {
		t.Errorf("Result diverged:\noff: %+v\non:  %+v", resOff, resOn)
	}
	if !reflect.DeepEqual(traceOff, traceOn) {
		t.Errorf("FlowTrace diverged")
	}
	t.Logf("recorded=%d replayed=%d shallow=%v", statsOn.CyclesRecorded, statsOn.CyclesReplayed, resOn.ShallowIdles)
	if statsOn.CyclesReplayed == 0 {
		t.Errorf("shallow cycles never replayed")
	}
	if resOn.ShallowIdles["C8"] != 15 {
		t.Errorf("shallow idles = %v, want 15 C8 parks", resOn.ShallowIdles)
	}

	// An all-shallow workload cannot recur (no re-anchoring), but must
	// still be byte-identical while running in full.
	flat := workload.Fixed(20, 0, 2*sim.Millisecond)
	fOff, _, _ := runWithMode(t, cfg, FFOff, flat)
	fOn, _, fStats := runWithMode(t, cfg, FFOn, flat)
	if !reflect.DeepEqual(fOff, fOn) {
		t.Errorf("all-shallow Result diverged:\noff: %+v\non:  %+v", fOff, fOn)
	}
	t.Logf("all-shallow recorded=%d replayed=%d", fStats.CyclesRecorded, fStats.CyclesReplayed)
}

// TestVerifyModeCleanRun: verify mode re-simulates every memoized cycle
// and diffs it against the record; a healthy platform must pass. The
// second workload puts shallow cycles before and after deep ones: a
// shallow cycle's record must not carry the context latencies an
// earlier deep cycle left behind.
func TestVerifyModeCleanRun(t *testing.T) {
	shallow := workload.Cycle{Idle: 2 * sim.Millisecond, Wake: workload.WakeTimer}
	deep := workload.Cycle{Idle: 30 * sim.Second, Wake: workload.WakeTimer}
	mixed := []workload.Cycle{shallow, shallow}
	for i := 0; i < 6; i++ {
		mixed = append(mixed, deep, shallow, shallow)
	}
	for name, cfg := range zeroPPBConfigs() {
		t.Run(name, func(t *testing.T) {
			for _, cycles := range [][]workload.Cycle{workload.Fixed(20, 0, 30*sim.Second), mixed} {
				res, _, stats := runWithMode(t, cfg, FFVerify, cycles)
				if stats.CyclesReplayed != 0 {
					t.Errorf("verify mode replayed %d cycles", stats.CyclesReplayed)
				}
				if res.Cycles != len(cycles) {
					t.Errorf("cycles = %d", res.Cycles)
				}
			}
		})
	}
}

// TestFFModeParsing covers the flag round trip.
func TestFFModeParsing(t *testing.T) {
	for _, m := range []FFMode{FFOn, FFOff, FFVerify} {
		got, err := ParseFFMode(m.String())
		if err != nil || got != m {
			t.Errorf("round trip %v: got %v, err %v", m, got, err)
		}
	}
	if _, err := ParseFFMode("maybe"); err == nil {
		t.Errorf("ParseFFMode(maybe) succeeded")
	}
}
