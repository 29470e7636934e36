package platform

import (
	"crypto/sha256"
	"fmt"

	"odrips/internal/chipset"
	"odrips/internal/faults"
	"odrips/internal/pml"
	"odrips/internal/power"
	"odrips/internal/sim"
	"odrips/internal/sram"
	"odrips/internal/timer"
)

// This file is the platform-side interpreter of internal/faults plans plus
// the recovery edges they exercise: abortable entry, MEE restore
// retry/degradation, drift-triggered recalibration, and FET re-drive. Every
// injection is delivered through an ordinary scheduler event, so runs with
// a fixed (config, workload, plan) triple are byte-identical regardless of
// host parallelism. With no plan installed — or an empty one — none of
// these paths run and the platform behaves exactly as before.

// FaultStats surfaces what an installed fault plan did to a run.
type FaultStats struct {
	// Planned is the number of injections in the installed plan. Fired
	// counts those delivered to the hardware models; Skipped counts those
	// reached but inapplicable to the configuration (e.g. a bit flip with
	// no protected DRAM region). Planned - Fired - Skipped injections were
	// never reached (their cycle or step did not occur).
	Planned uint64
	Fired   uint64
	Skipped uint64

	// EntryAborts counts entry flows unwound by an injected wake, and
	// AbortWastedUJ the battery energy those abandoned entries plus their
	// rollbacks consumed.
	EntryAborts   uint64
	AbortWastedUJ float64

	// MEERetries counts context-restore verification failures answered by
	// a retry; Degradations counts second failures that demoted the
	// platform to DRIPS-with-retention-SRAM for the rest of the run.
	MEERetries   uint64
	Degradations uint64

	// Recalibrations counts drift excursions caught by the exit flow's
	// Step cross-check; FETRetries counts AON-IO re-power glitches that
	// cost an extra slew window.
	Recalibrations uint64
	FETRetries     uint64
}

// String renders the stats as a one-line summary for CLI output.
func (s FaultStats) String() string {
	return fmt.Sprintf(
		"planned %d fired %d skipped %d | aborts %d (wasted %.1f uJ) retries %d degradations %d recals %d fet-retries %d",
		s.Planned, s.Fired, s.Skipped,
		s.EntryAborts, s.AbortWastedUJ, s.MEERetries, s.Degradations,
		s.Recalibrations, s.FETRetries)
}

// faultPlane holds the installed plan and its interpreter state.
type faultPlane struct {
	plan  faults.Plan
	fired []bool // one-shot latch per injection
	stats FaultStats

	// meeForce fails the next context-restore verification once (the
	// transient MEEFail arm).
	meeForce bool
}

// InjectFaults installs a fault plan, arming the fault plane for the next
// RunCycles invocation. Cycle indices in the plan are 0-based within that
// run; injections are one-shot, so a cycle retried after an abort replays
// clean. Installing the empty plan arms the plane but injects nothing —
// results are then byte-identical to a platform with no plan at all.
// Replaces any previously installed plan (and its statistics); illegal
// mid-flow.
func (p *Platform) InjectFaults(plan faults.Plan) error {
	if err := plan.Validate(); err != nil {
		return err
	}
	if p.inFlow {
		return fmt.Errorf("platform: InjectFaults during a flow")
	}
	p.fplane = &faultPlane{
		plan:  plan,
		fired: make([]bool, len(plan.Injections)),
	}
	p.fplane.stats.Planned = uint64(len(plan.Injections))
	return nil
}

// Degraded reports whether repeated context-restore failures demoted the
// platform to DRIPS-with-retention-SRAM.
func (p *Platform) Degraded() bool { return p.degraded }

// effTech returns the techniques actually in force: degradation strips
// CtxSGXDRAM (the context falls back to the retention SRAMs) while the
// timer and AON-IO techniques keep working.
func (p *Platform) effTech() Technique {
	t := p.cfg.Techniques
	if p.degraded {
		t &^= CtxSGXDRAM
	}
	return t
}

// effEMRAM reports whether the eMRAM context store is in force (degradation
// abandons it the same way it abandons the DRAM store).
func (p *Platform) effEMRAM() bool { return p.cfg.CtxInEMRAM && !p.degraded }

// faultMarker records a zero-duration annotation in the flow trace; the
// enclosing flow step's recorded duration carries the real cost.
func (p *Platform) faultMarker(step string) {
	p.recordStep(FlowStep{Flow: "fault", Step: step, At: p.sched.Now()})
}

// injectAtStep fires the wake-kind injections addressed to step i of the
// named flow. The wake is scheduled as an ordinary zero-delay event, so it
// lands after the currently-dispatching event — i.e. while step i runs (or,
// for synchronous steps, at the first wait that follows).
func (p *Platform) injectAtStep(flow string, i int) {
	fp := p.fplane
	if fp == nil {
		return
	}
	var want faults.Kind
	switch flow {
	case "entry":
		want = faults.WakeDuringEntry
	case "exit":
		want = faults.WakeDuringExit
	default:
		return
	}
	for idx, inj := range fp.plan.Injections {
		if fp.fired[idx] || inj.Kind != want || inj.Cycle != p.cycleIdx || inj.Step != i {
			continue
		}
		fp.fired[idx] = true
		kind := inj.Kind
		p.sched.After(0, "fault.wake", func() {
			fp.stats.Fired++
			p.faultMarker(kind.String())
			if kind == faults.WakeDuringEntry {
				// Arm the abortable-entry path: onWake distinguishes this
				// injected wake from a naturally racing one.
				p.wantAbort = true
			}
			p.hub.ExternalWake()
		})
	}
}

// injectAtIdle fires the idle-window injections (MEE failure, DRAM bit
// flip, timer drift) for the current cycle, as zero-delay events scheduled
// at idle-state entry.
func (p *Platform) injectAtIdle() {
	fp := p.fplane
	if fp == nil {
		return
	}
	for idx, inj := range fp.plan.Injections {
		if fp.fired[idx] || inj.Cycle != p.cycleIdx {
			continue
		}
		switch inj.Kind {
		case faults.MEEFail, faults.DRAMBitFlip, faults.TimerDrift:
		default:
			continue
		}
		fp.fired[idx] = true
		inj := inj
		p.sched.After(0, "fault.inject", func() { p.applyIdleFault(inj) })
	}
}

func (p *Platform) applyIdleFault(inj faults.Injection) {
	fp := p.fplane
	switch inj.Kind {
	case faults.TimerDrift:
		// A thermal excursion retunes the slow crystal. Materialize the
		// lazy slow-counter state first so already-elapsed edges keep
		// their pre-drift timing (clock.Oscillator.Retune contract).
		if p.hub.Hosting() {
			_ = p.hub.Unit().Now()
		}
		ppb := p.xtal32.PPB() + inj.Arg
		const bound = 900_000_000
		if ppb > bound {
			ppb = bound
		} else if ppb < -bound {
			ppb = -bound
		}
		p.xtal32.Retune(ppb)
		fp.stats.Fired++
		p.faultMarker(inj.Kind.String())

	case faults.DRAMBitFlip:
		if !p.effTech().Has(CtxSGXDRAM) {
			fp.stats.Skipped++
			return
		}
		// Reduce the planned bit offset into the protected region — data
		// and integrity metadata alike — and flip it in place. The module
		// is in self-refresh; CorruptBit models exactly that retention
		// error.
		bits := p.ctxRegion.Size * 8
		bit := uint64(inj.Arg) % bits
		if err := p.mem.CorruptBit(p.ctxRegion.Base+bit/8, uint(bit%8)); err != nil {
			p.fail("platform: fault bitflip: %v", err)
			return
		}
		fp.stats.Fired++
		p.faultMarker(inj.Kind.String())

	case faults.MEEFail:
		ctxOffChip := p.effTech().Has(CtxSGXDRAM) || p.effEMRAM()
		if !ctxOffChip {
			fp.stats.Skipped++
			return
		}
		if inj.Arg == faults.ArgPersistent {
			// Corrupt the stored image itself: every restore attempt
			// fails verification and the platform degrades.
			if p.effTech().Has(CtxSGXDRAM) {
				if err := p.mem.CorruptBit(p.ctxRegion.Base, 0); err != nil {
					p.fail("platform: fault meefail: %v", err)
					return
				}
			} else {
				p.emram[0] ^= 1
				p.emramHashOK = false // in-place corruption invalidates the cached digest
			}
		} else {
			// Transient: the stored image is fine, the first restore's
			// verification fails anyway (soft ECC / bus glitch).
			fp.meeForce = true
		}
		fp.stats.Fired++
		p.faultMarker(inj.Kind.String())
	}
}

// takeFETGlitch consumes a pending FETGlitch injection for the current
// cycle, if any.
func (p *Platform) takeFETGlitch() bool {
	fp := p.fplane
	if fp == nil {
		return false
	}
	for idx, inj := range fp.plan.Injections {
		if !fp.fired[idx] && inj.Kind == faults.FETGlitch && inj.Cycle == p.cycleIdx {
			fp.fired[idx] = true
			fp.stats.Fired++
			return true
		}
	}
	return false
}

// takeMEEForce consumes the one-shot transient verification failure.
func (p *Platform) takeMEEForce() bool {
	if p.fplane != nil && p.fplane.meeForce {
		p.fplane.meeForce = false
		return true
	}
	return false
}

// ---- Recovery edges ----

// abortEntry unwinds a partially executed entry flow after an injected
// wake: the PMU rolls back from the deepest already-safe state by running
// the inverse of the milestones the entry reached (the same hardware
// sequencing the exit flow uses), services the wake in Active, and the OS
// immediately retries the idle period — the wake consumed none of it.
// Everything the abandoned entry and its rollback spent is accounted in
// FaultStats.AbortWastedUJ.
func (p *Platform) abortEntry(src chipset.WakeSource) {
	fp := p.fplane
	fp.stats.EntryAborts++
	p.wakeCount[src]++
	p.state = power.Exit
	p.tracker.to(power.Exit)
	p.applyPhase(phTrailer)

	bud := p.bud
	m := p.entryM
	var steps []step

	if m.timerMigrated {
		steps = append(steps, p.restoreFastTimerStep())
	}
	if m.gatedIOs {
		steps = append(steps, step{name: "release-fet", run: p.releaseFET})
	}
	if m.timerMigrated {
		steps = append(steps, step{name: "pml-timer-return", run: func(next func()) {
			p.procDom.Ungate()
			p.c2pContinue = next // no drift check on the abort path
			err := p.linkC2P.Send(pml.Message{
				Kind:  pml.TimerValue,
				Value: p.linkC2P.CompensateTimer(p.hub.Unit().Now()),
			})
			if err != nil {
				p.fail("platform: abort timer return: %v", err)
			}
		}})
	}
	steps = append(steps, action("exit-power", func() { p.applyPhase(phExit) }))
	if m.vrOff {
		steps = append(steps, p.wait("vr-on", bud.VROn))
	}
	if m.ctxSaved {
		restore := p.ctxRestoreSteps()
		if !m.selfRefresh {
			// DRAM never entered self-refresh: drop the dram-wake stage,
			// keep the variant's bring-up/restore stages.
			kept := restore[:0]
			for _, s := range restore {
				if s.name != "dram-wake" {
					kept = append(kept, s)
				}
			}
			restore = kept
		}
		steps = append(steps, restore...)
	}
	steps = append(steps, p.wait("abort-firmware", bud.ExitFirmware))

	p.runSteps("abort", steps, func() {
		p.state = power.Active
		p.tracker.to(power.Active)
		p.applyPhase(phActive)
		wasted := p.meter.TotalBattery().Sub(p.entryStartE)
		fp.stats.AbortWastedUJ += wasted.Joules() * 1e6
		p.inFlow = false
		done := p.cycleDone
		p.cycleDone = nil
		// The OS retries the full idle period; injections are one-shot,
		// so the retry replays clean.
		p.enterIdle(p.idleFor, p.plan, done)
	})
}

// releaseFET is the exit/abort FET-release stage, including the glitch
// recovery edge: a planned over/undershoot is detected after the slew
// window, the PMU re-drives the FET, and a second slew is waited out.
func (p *Platform) releaseFET(next func()) {
	bud := p.bud
	if err := p.hub.ReleaseProcessorIOs(); err != nil {
		p.fail("platform: FET release: %v", err)
		return
	}
	p.meter.Set(p.cFET, 0)
	p.meter.Set(p.cVRAonIO, bud.VRAonIOMW)
	if err := p.hub.MonitorThermal(p.xtal24); err != nil {
		p.fail("platform: thermal re-host: %v", err)
		return
	}
	if p.takeFETGlitch() {
		p.sched.After(bud.FETSlew, "fault.fet-glitch", func() {
			p.fplane.stats.FETRetries++
			p.faultMarker("release-fet-retry")
			p.sched.After(bud.FETSlew, "flow.fet-slew", next)
		})
		return
	}
	p.sched.After(bud.FETSlew, "flow.fet-slew", next)
}

// restoreCtxDRAM runs one context-restore attempt through the MEE,
// retrying a failed verification once and degrading to retention SRAM on
// the second failure (§6.2's integrity guarantee turned into a recovery
// edge instead of a latched error).
func (p *Platform) restoreCtxDRAM(attempt int, next func()) {
	bud := p.bud
	ff := &p.ff
	done := func(lat sim.Duration) {
		p.flowStats.ctxRestore = lat
		p.flowStats.ctxVerified++
		p.sched.After(lat, "flow.restore-ctx-dram", func() {
			p.saSRAM.SetState(sram.Active)
			p.computeSRAM.SetState(sram.Active)
			p.meter.Set(p.cVRSram, bud.VRSramMW)
			next()
		})
	}
	start := ffNoStart
	if attempt == 1 && ff.mode != FFOff && ff.cycleOK {
		// The boot FSM step imported a fresh engine just before this
		// first attempt.
		start = ffStartImported
	}
	// A replayed steady-state restore is a fresh-import engine
	// sequentially reading the canonical post-save region: its traffic
	// and verification outcome are the memoized ones. The cache stays
	// cold-stale; ffRealize rebuilds it before the next real op.
	var verifyErr error
	lat, err := p.ctxOp(false, start, func() error {
		data, err := p.eng.ReadRegionInto(p.restoreBuffer(), len(p.ctxImage))
		switch {
		case err != nil:
		case sha256.Sum256(data) != p.ctxHash:
			err = fmt.Errorf("platform: restored context hash mismatch")
		case p.takeMEEForce():
			err = fmt.Errorf("platform: injected MEE verification failure")
		}
		verifyErr = err
		return err
	})
	if err == nil {
		done(lat)
		return
	}
	if p.fplane == nil || err != verifyErr {
		// No fault plane: a genuine integrity failure stays a hard error,
		// as does a failure to run the op at all.
		p.fail("platform: context restore: %v", err)
		return
	}
	// The DMA that produced the failure still moved blocks: charge its
	// bus time (ctxOp prices a failed op's traffic too) before deciding
	// what happens next.
	if attempt == 1 {
		p.fplane.stats.MEERetries++
		p.sched.After(lat, "fault.restore-retry", func() {
			p.faultMarker("restore-ctx-retry")
			p.restoreCtxDRAM(2, next)
		})
		return
	}
	p.sched.After(lat, "fault.degrade", func() { p.degradeToSRAM(next) })
}

// restoreCtxEMRAM is the eMRAM-variant counterpart of restoreCtxDRAM.
func (p *Platform) restoreCtxEMRAM(attempt int, next func()) {
	bud := p.bud
	lat := sim.FromSeconds(float64(len(p.emram)) / bud.EMRAMPortBW)
	ok := sha256.Sum256(p.emram) == p.ctxHash
	if ok && p.takeMEEForce() {
		ok = false
	}
	if ok {
		p.flowStats.ctxRestore = lat
		p.flowStats.ctxVerified++
		p.sched.After(lat, "flow.restore-ctx-emram", func() {
			p.saSRAM.SetState(sram.Active)
			p.computeSRAM.SetState(sram.Active)
			p.bootSRAM.SetState(sram.Active)
			p.meter.Set(p.cVRSram, bud.VRSramMW)
			next()
		})
		return
	}
	if p.fplane == nil {
		p.fail("platform: eMRAM context hash mismatch")
		return
	}
	if attempt == 1 {
		p.fplane.stats.MEERetries++
		p.sched.After(lat, "fault.restore-retry", func() {
			p.faultMarker("restore-ctx-retry")
			p.restoreCtxEMRAM(2, next)
		})
		return
	}
	p.sched.After(lat, "fault.degrade", func() { p.degradeToSRAM(next) })
}

// degradeToSRAM demotes the platform to DRIPS-with-retention-SRAM after
// repeated restore verification failures: the off-chip image is abandoned,
// the retention SRAMs come back up, and the OS re-initializes the context
// (a full re-init rather than a resume, charged as Budget.CtxRebuild). All
// subsequent cycles run with effTech() — WakeUpOff and AONIOGate keep
// working, so idle power rises toward the DRIPS-with-retention-SRAM floor
// instead of collapsing to the baseline.
func (p *Platform) degradeToSRAM(next func()) {
	p.fplane.stats.Degradations++
	p.faultMarker("degrade-retention-sram")
	p.degraded = true
	p.eng = nil
	p.saSRAM.SetState(sram.Active)
	p.computeSRAM.SetState(sram.Active)
	p.bootSRAM.SetState(sram.Active)
	p.meter.Set(p.cVRSram, p.bud.VRSramMW)
	p.sched.After(p.bud.CtxRebuild, "fault.ctx-rebuild", next)
}

// driftCheck is the exit flow's timer cross-check: after the fast timer is
// back, PMU firmware re-measures the Step (a zero-latency edge-arithmetic
// probe, free and invisible when nothing drifted) and compares it against
// the calibration in force. An excursion beyond Budget.DriftRecalPPB
// triggers a recalibration — the §4.1.3 once-per-reset calibration re-armed
// as a recovery edge — costing Budget.RecalWindow at exit power.
func (p *Platform) driftCheck(next func()) {
	cal := p.hub.Calibration()
	if cal == nil || cal.Step.Raw == 0 {
		next()
		return
	}
	probe, err := timer.CalibrateNow(p.sched, p.xtal24, p.xtal32)
	if err != nil {
		next()
		return
	}
	diff := int64(probe.Step.Raw) - int64(cal.Step.Raw)
	if diff < 0 {
		diff = -diff
	}
	// Step LSBs are 2^-f of a fast count per slow cycle, so the relative
	// drift in ppb is diff/raw * 1e9, computed from the two raw integers
	// (no fixed-point rendering involved).
	ppb := float64(diff) * 1e9 / float64(cal.Step.Raw)
	if p.bud.DriftRecalPPB <= 0 || ppb < float64(p.bud.DriftRecalPPB) {
		next()
		return
	}
	if p.fplane != nil {
		p.fplane.stats.Recalibrations++
	}
	started := p.sched.Now()
	startE := p.meter.TotalBattery()
	if err := p.hub.Calibrate(); err != nil {
		p.fail("platform: recalibration: %v", err)
		return
	}
	p.sched.After(p.bud.RecalWindow, "fault.recalibrate", func() {
		p.recordStep(FlowStep{
			Flow:     "exit",
			Step:     "recalibrate",
			At:       started,
			Duration: p.sched.Now().Sub(started),
			EnergyUJ: p.meter.TotalBattery().Sub(startE).Joules() * 1e6,
		})
		next()
	})
}
