package platform

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"

	"odrips/internal/chipset"
	"odrips/internal/ctxstore"
	"odrips/internal/dram"
	"odrips/internal/mee"
	"odrips/internal/pml"
	"odrips/internal/pmu"
	"odrips/internal/power"
	"odrips/internal/sim"
	"odrips/internal/sram"
)

// wakePlan says what ends an idle period.
type wakePlan struct {
	kind chipset.WakeSource
}

// step is one stage of a firmware flow; run must invoke next exactly once,
// now or later.
type step struct {
	name string
	run  func(next func())
}

func (p *Platform) runSteps(flow string, steps []step, done func()) {
	var exec func(i int)
	exec = func(i int) {
		if p.err != nil {
			return // a failed flow stops dead; RunCycles reports the error
		}
		if p.abortWake != nil && flow == "entry" {
			// An injected wake arrived while the previous step ran: the
			// flow unwinds at this step boundary instead of going deeper.
			src := *p.abortWake
			p.abortWake = nil
			p.abortEntry(src)
			return
		}
		if i >= len(steps) {
			done()
			return
		}
		p.injectAtStep(flow, i)
		started := p.sched.Now()
		startE := p.meter.TotalBattery()
		steps[i].run(func() {
			p.recordStep(FlowStep{
				Flow:     flow,
				Step:     steps[i].name,
				At:       started,
				Duration: p.sched.Now().Sub(started),
				EnergyUJ: p.meter.TotalBattery().Sub(startE).Joules() * 1e6,
			})
			exec(i + 1)
		})
	}
	exec(0)
}

// FlowStep is one recorded stage of an entry or exit flow, an abort
// rollback, or a zero-duration fault-injection marker.
type FlowStep struct {
	Flow     string // "entry", "exit", "abort", or "fault"
	Step     string
	At       sim.Time
	Duration sim.Duration
	// EnergyUJ is the battery energy spent while the step ran.
	EnergyUJ float64
}

// flowTraceCap bounds the trace ring so multi-hour runs stay flat.
const flowTraceCap = 128

// recordStep appends to the trace ring until it holds flowTraceCap
// steps (a short run allocates only what it records); from then on each
// step overwrites the oldest, at flowHead, so a long run never
// reallocates the ring.
func (p *Platform) recordStep(fs FlowStep) {
	p.ffRecordFlowStep(fs)
	if len(p.flowTrace) < flowTraceCap {
		p.flowTrace = append(p.flowTrace, fs)
		return
	}
	p.flowTrace[p.flowHead] = fs
	if p.flowHead++; p.flowHead == flowTraceCap {
		p.flowHead = 0
	}
}

// FlowTrace returns the most recent flow steps (entry and exit stages with
// their timestamps and durations), newest last. Useful for inspecting what
// a configuration actually executes: ODRIPS entries show the timer
// migration, FET gating, and crystal shutdown that baseline DRIPS lacks.
func (p *Platform) FlowTrace() []FlowStep {
	return slices.Concat(p.flowTrace[p.flowHead:], p.flowTrace[:p.flowHead])
}

// wait returns a fixed-latency step.
func (p *Platform) wait(name string, d sim.Duration) step {
	return step{name: name, run: func(next func()) {
		p.sched.After(d, "flow."+name, next)
	}}
}

// action returns a synchronous step.
func action(name string, fn func()) step {
	return step{name: name, run: func(next func()) {
		fn()
		next()
	}}
}

func (p *Platform) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf(format, args...)
	}
	// Drain the queue: a latched error must stop the run dead rather than
	// leave orphaned events dispatching into half-torn-down hardware
	// models. Held handles (armed wakes, tickers) go stale, as if each had
	// been cancelled individually.
	p.sched.Clear()
}

// mark wraps a step so the given milestone flips when the step completes.
func mark(s step, m *bool) step {
	run := s.run
	return step{name: s.name, run: func(next func()) {
		run(func() {
			*m = true
			next()
		})
	}}
}

// mcConfig serializes the minimal memory-controller bring-up state kept in
// the Boot SRAM.
func (p *Platform) mcConfig() []byte {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[0:8], p.mem.Config().CapacityBytes)
	binary.LittleEndian.PutUint32(b[8:12], uint32(p.mem.Config().TransferMTps))
	binary.LittleEndian.PutUint32(b[12:16], uint32(p.mem.Config().Tech))
	return b[:]
}

// pmuVector derives the PMU boot vector kept in the Boot SRAM.
func pmuVector(seed int64) []byte {
	v := sha256.Sum256([]byte(fmt.Sprintf("pmu-vector-%d", seed)))
	return v[:]
}

// ---- Entry flow (§2.2 baseline; §4–6 ODRIPS additions) ----

// enterIdle runs the DRIPS/ODRIPS entry flow, idles until the planned wake
// fires, exits, and finally calls done back in the Active state.
func (p *Platform) enterIdle(idleFor sim.Duration, plan wakePlan, done func()) {
	if p.state != power.Active {
		p.fail("platform: enterIdle from state %v", p.state)
		return
	}
	if p.inFlow {
		p.fail("platform: overlapping flows")
		return
	}
	p.inFlow = true
	p.cycleDone = done
	p.idleFor = idleFor
	p.plan = plan
	p.state = power.Entry
	p.tracker.to(power.Entry)
	p.applyPhase(phEntry)
	p.hub.ResetWakeLatch()
	entryStart := p.sched.Now()
	p.entryM = entryMilestones{}
	p.entryStartE = p.meter.TotalBattery()
	p.wantAbort = false
	p.abortWake = nil

	bud := p.bud
	var steps []step

	// PMU firmware sequencing overhead.
	steps = append(steps, p.wait("entry-firmware", bud.EntryFirmware))

	// (1) Flush the dirty LLC lines into DRAM.
	dirty := int(float64(bud.LLCBytes) * bud.LLCDirtyFraction)
	steps = append(steps, p.wait("flush-llc", p.mem.TransferTime(dirty, true)))

	// (2) Compute-domain voltage regulators off.
	steps = append(steps, mark(p.wait("vr-compute-off", bud.VRComputeOff), &p.entryM.vrOff))

	// (3) Context save: to protected DRAM (CTX-SGX-DRAM), to on-chip eMRAM
	// (ODRIPS-MRAM), or to the retention SRAMs (baseline).
	steps = append(steps, mark(p.ctxSaveStep(), &p.entryM.ctxSaved))

	// (4) DRAM into self-refresh (CKE held low by the PMU AON domain;
	// PCM needs neither refresh nor CKE).
	steps = append(steps, mark(step{name: "dram-self-refresh", run: func(next func()) {
		if p.mem.NonVolatile() {
			p.mem.SetCKE(false)
		}
		if err := p.mem.SetState(dram.SelfRefresh); err != nil {
			p.fail("platform: self-refresh: %v", err)
			return
		}
		p.sched.After(bud.SelfRefreshEnter, "flow.self-refresh", next)
	}}, &p.entryM.selfRefresh))

	// Hand-over windows run at trailer power: the platform is mostly down.
	steps = append(steps, action("trailer", func() { p.applyPhase(phTrailer) }))

	if p.cfg.Techniques.Has(WakeUpOff) {
		// (5) Timer migration over the PML, then hand-over to the slow
		// timer at a 32.768 kHz edge (§4.1.2, Fig. 3(b)).
		steps = append(steps, mark(step{name: "timer-migrate", run: func(next func()) {
			v := p.mainTimer.Read()
			p.mainTimer.Stop()
			p.p2cContinue = next
			err := p.linkP2C.Send(pml.Message{
				Kind:  pml.TimerValue,
				Value: p.linkP2C.CompensateTimer(v),
			})
			if err != nil {
				p.fail("platform: timer migration: %v", err)
			}
		}}, &p.entryM.timerMigrated))
		// (6) Offload the AON IO functions and gate the rail (§5.2).
		if p.cfg.Techniques.Has(AONIOGate) {
			steps = append(steps, mark(step{name: "gate-aon-ios", run: func(next func()) {
				if err := p.hub.MonitorThermal(p.xtal32); err != nil {
					p.fail("platform: thermal offload: %v", err)
					return
				}
				if err := p.hub.GateProcessorIOs(); err != nil {
					p.fail("platform: FET gate: %v", err)
					return
				}
				p.meter.Set(p.cFET, p.fet.ResidualLeakageMW())
				p.meter.Set(p.cVRAonIO, 0)
				p.sched.After(bud.FETSlew, "flow.fet-slew", next)
			}}, &p.entryM.gatedIOs))
		}
		// (7) All 24 MHz consumers are gone: gate the processor clock
		// domain and shut the crystal (§4.1.2).
		steps = append(steps, mark(action("shut-fast-clock", func() {
			if !p.cfg.Techniques.Has(AONIOGate) {
				// Without the AON-IO offload the thermal watch was never
				// re-hosted; it must still follow the clock to the slow
				// crystal, or an EC wake during idle samples a dead
				// oscillator and is lost (found by the fault-plane
				// property harness).
				if err := p.hub.MonitorThermal(p.xtal32); err != nil {
					p.fail("platform: thermal re-host: %v", err)
					return
				}
			}
			p.procDom.Gate()
			if err := p.hub.ShutFastCrystal(); err != nil {
				p.fail("platform: shut fast crystal: %v", err)
			}
		}), &p.entryM.clockShut))
	}

	p.runSteps("entry", steps, func() {
		// (8) PMU gated; the platform is resident in DRIPS/ODRIPS.
		p.state = power.Idle
		p.tracker.to(power.Idle)
		p.applyPhase(phIdle)
		p.flowStats.entries++
		d := p.sched.Now().Sub(entryStart)
		p.flowStats.entryTotal += d
		if d > p.flowStats.entryMax {
			p.flowStats.entryMax = d
		}
		p.injectAtIdle()
		p.armWake()
		if pending := p.pendingWake; pending != nil {
			// A wake raced the entry flow: leave immediately.
			p.pendingWake = nil
			p.onWake(*pending, p.sched.Now())
		}
	})
}

// ctxSaveStep builds the context-save stage for the variant in force
// (degradation demotes the off-chip variants to the retention SRAMs).
func (p *Platform) ctxSaveStep() step {
	bud := p.bud
	switch {
	case p.effTech().Has(CtxSGXDRAM):
		return step{name: "save-ctx-dram", run: func(next func()) {
			lat, err := p.ffSaveCtxDRAM()
			if err != nil {
				p.fail("platform: context save: %v", err)
				return
			}
			boot := ctxstore.BootImage{
				MEEState:  p.eng.ExportState(),
				MCConfig:  p.mcCfg,
				PMUVector: p.pmuVec,
			}
			if err := p.bootFSM.Save(boot); err != nil {
				p.fail("platform: boot image save: %v", err)
				return
			}
			p.flowStats.ctxSaveLat = lat
			p.sched.After(lat+bud.BootFSMLatency, "flow.save-ctx-dram", func() {
				// The MEE, with its key and root counter, powers down;
				// only the Boot SRAM retains state on-chip.
				p.ff.downEng, p.eng = p.eng, nil
				p.saSRAM.SetState(sram.Off)
				p.computeSRAM.SetState(sram.Off)
				p.bootSRAM.SetState(sram.Retention)
				p.meter.Set(p.cVRSram, 0)
				next()
			})
		}}
	case p.effEMRAM():
		return step{name: "save-ctx-emram", run: func(next func()) {
			p.emram = append(p.emram[:0], p.ctxImage...)
			// The bytes are exactly ctxImage, whose digest was computed
			// once at New; install it so the boundary fingerprint never
			// re-hashes an unchanged image.
			p.emramHash, p.emramHashOK = p.ctxHash, true
			lat := sim.FromSeconds(float64(len(p.ctxImage)) / bud.EMRAMPortBW)
			p.flowStats.ctxSaveLat = lat
			p.sched.After(lat, "flow.save-ctx-emram", func() {
				// eMRAM retains with the supply off: everything on-chip
				// can power down, Boot SRAM included.
				p.saSRAM.SetState(sram.Off)
				p.computeSRAM.SetState(sram.Off)
				p.bootSRAM.SetState(sram.Off)
				p.meter.Set(p.cVRSram, 0)
				next()
			})
		}}
	default:
		return step{name: "save-ctx-sram", run: func(next func()) {
			saImg := p.saImage
			cpImg := p.cpImage
			saT := pmu.NewSRAMTarget(p.saSRAM)
			cpT := pmu.NewSRAMTarget(p.computeSRAM)
			if err := saT.Save(saImg); err != nil {
				p.fail("platform: SA context save: %v", err)
				return
			}
			if err := cpT.Save(cpImg); err != nil {
				p.fail("platform: compute context save: %v", err)
				return
			}
			// The two FSMs run concurrently; latency is the slower one.
			lat := saT.SaveLatency(len(saImg))
			if l := cpT.SaveLatency(len(cpImg)); l > lat {
				lat = l
			}
			p.flowStats.ctxSaveLat = lat
			p.sched.After(lat, "flow.save-ctx-sram", func() {
				p.saSRAM.SetState(sram.Retention)
				p.computeSRAM.SetState(sram.Retention)
				p.bootSRAM.SetState(sram.Retention)
				next()
			})
		}}
	}
}

// armWake schedules the planned wake source once the platform is resident.
func (p *Platform) armWake() {
	counts := TimerCounts(p.idleFor)
	switch p.plan.kind {
	case chipset.WakeTimer:
		if p.cfg.Techniques.Has(WakeUpOff) {
			target := p.hub.Unit().Now() + counts
			if err := p.hub.ArmTimerWake(target); err != nil {
				p.fail("platform: arm chipset timer wake: %v", err)
			}
			return
		}
		// Baseline: the PMU's own wake timer, toggling at 24 MHz.
		target := p.mainTimer.Read() + counts
		at, ok := p.mainTimer.TimeOfValue(target)
		if !ok {
			p.fail("platform: baseline timer wake unreachable")
			return
		}
		p.armedEv = p.sched.At(at, "pmu.timer-wake", func() {
			p.onWake(chipset.WakeTimer, p.sched.Now())
		})
	case chipset.WakeExternal:
		p.armedEv = p.sched.After(p.idleFor, "workload.external-wake", func() {
			p.hub.ExternalWake()
		})
	case chipset.WakeThermal:
		p.armedEv = p.sched.After(p.idleFor, "workload.thermal-wake", func() {
			if err := p.hub.ThermalPin().Drive(true); err != nil {
				p.fail("platform: thermal drive: %v", err)
			}
		})
	}
}

// restoreFastTimerStep is the shared exit/abort stage that brings the fast
// crystal back and re-adopts counting at a 32 kHz edge. When AON-IO-GATE is
// absent the thermal watch re-hosted to the slow crystal at entry (there is
// no release-fet stage to undo it), so it moves back here.
func (p *Platform) restoreFastTimerStep() step {
	return step{name: "restore-fast-timer", run: func(next func()) {
		err := p.hub.RestoreFastTimer(func(uint64, sim.Time) {
			if !p.cfg.Techniques.Has(AONIOGate) {
				if err := p.hub.MonitorThermal(p.xtal24); err != nil {
					p.fail("platform: thermal re-host: %v", err)
					return
				}
			}
			next()
		})
		if err != nil {
			p.fail("platform: restore fast timer: %v", err)
		}
	}}
}

// ---- Exit flow ----

// onWake starts the exit flow. It is the hub's OnWake handler and also the
// baseline PMU timer-wake target.
func (p *Platform) onWake(src chipset.WakeSource, _ sim.Time) {
	if p.err != nil {
		return
	}
	if p.state == power.Entry {
		if p.wantAbort {
			// An injected wake armed the abortable-entry path: the
			// in-flight step completes, then runSteps unwinds the flow
			// from the deepest already-safe state.
			p.wantAbort = false
			src := src
			p.abortWake = &src
			return
		}
		// A wake event naturally raced the entry flow. The PMU sequences
		// an uninstrumented entry to completion (as the paper's does);
		// latch the event and exit immediately once resident.
		p.pendingWake = &src
		return
	}
	p.wantAbort = false // injected wake landed outside entry: plain wake
	if p.state != power.Idle {
		return
	}
	p.wakeCount[src]++
	p.sched.Cancel(p.armedEv)
	p.armedEv = sim.Event{}
	p.state = power.Exit
	p.tracker.to(power.Exit)
	p.applyPhase(phTrailer)
	exitStart := p.sched.Now()
	if src == chipset.WakeThermal {
		// The EC deasserts its line as soon as servicing begins, so the
		// next thermal event produces a fresh rising edge. Deasserting here
		// rather than at flow completion lets the falling-edge sample land
		// inside the exit flow (it is quantized to the sampling clock), so
		// the cycle ends with an empty event queue and stays eligible for
		// fast-forward memoization.
		if err := p.hub.ThermalPin().Drive(false); err != nil {
			p.fail("platform: thermal deassert: %v", err)
			return
		}
	}

	bud := p.bud
	var steps []step
	var reinit sim.Duration

	if p.cfg.Techniques.Has(WakeUpOff) {
		reinit += bud.ReinitWake
		// Crystal back on, counting handed back to the fast timer at a
		// 32 kHz edge (§4.1.2 exit).
		steps = append(steps, p.restoreFastTimerStep())
		if p.cfg.Techniques.Has(AONIOGate) {
			reinit += bud.ReinitAONIO
			steps = append(steps, step{name: "release-fet", run: p.releaseFET})
		}
		// Timer value returns to the processor over the PML (§4.1.2). The
		// chipset sends the live fast-timer register, not the value from
		// the hand-over edge — intermediate waits (FET slew) have already
		// elapsed on the fast clock. Once the value lands, PMU firmware
		// cross-checks the slow-timer interval against the restarted fast
		// clock (driftCheck) — free and invisible unless the slow crystal
		// drifted past the recalibration threshold.
		steps = append(steps, step{name: "pml-timer-return", run: func(next func()) {
			p.procDom.Ungate()
			p.c2pContinue = func() { p.driftCheck(next) }
			err := p.linkC2P.Send(pml.Message{
				Kind:  pml.TimerValue,
				Value: p.linkC2P.CompensateTimer(p.hub.Unit().Now()),
			})
			if err != nil {
				p.fail("platform: timer return: %v", err)
			}
		}})
	}

	// Power restoration runs at full exit level.
	steps = append(steps, action("exit-power", func() { p.applyPhase(phExit) }))
	steps = append(steps, p.wait("vr-on", bud.VROn))

	// Context restore for the configured variant.
	steps = append(steps, p.ctxRestoreSteps()...)

	switch {
	case p.effTech().Has(CtxSGXDRAM):
		reinit += bud.ReinitCtx
	case p.effEMRAM():
		reinit += bud.ReinitMRAM
	}
	if reinit > 0 {
		steps = append(steps, p.wait("technique-reinit", reinit))
	}
	steps = append(steps, p.wait("exit-firmware", bud.ExitFirmware))

	p.runSteps("exit", steps, func() {
		p.state = power.Active
		p.tracker.to(power.Active)
		p.applyPhase(phActive)
		p.flowStats.exits++
		d := p.sched.Now().Sub(exitStart)
		p.flowStats.exitTotal += d
		if d > p.flowStats.exitMax {
			p.flowStats.exitMax = d
		}
		p.inFlow = false
		if done := p.cycleDone; done != nil {
			p.cycleDone = nil
			done()
		}
	})
}

// ctxRestoreSteps builds the context-restore stages (self-refresh exit
// included, since reaching the context requires DRAM in every variant that
// stored it there).
func (p *Platform) ctxRestoreSteps() []step {
	bud := p.bud
	memUp := step{name: "dram-wake", run: func(next func()) {
		if p.mem.NonVolatile() {
			p.mem.SetCKE(true)
		}
		if err := p.mem.SetState(dram.Active); err != nil {
			p.fail("platform: self-refresh exit: %v", err)
			return
		}
		p.sched.After(bud.SelfRefreshExit, "flow.self-refresh-exit", next)
	}}

	switch {
	case p.effTech().Has(CtxSGXDRAM):
		bootUp := step{name: "boot-fsm", run: func(next func()) {
			p.bootSRAM.SetState(sram.Active)
			boot, err := p.bootFSM.Restore()
			if err != nil {
				p.fail("platform: boot image restore: %v", err)
				return
			}
			eng, err := mee.ImportState(p.mem, boot.MEEState, mee.DefaultCacheLines)
			if err != nil {
				p.fail("platform: MEE restore: %v", err)
				return
			}
			if !bytes.Equal(boot.MCConfig, p.mcCfg) {
				p.fail("platform: memory-controller boot config mismatch")
				return
			}
			p.eng, p.ff.downEng = eng, nil
			p.sched.After(p.bootFSM.Latency(), "flow.boot-fsm", next)
		}}
		restore := step{name: "restore-ctx-dram", run: func(next func()) {
			p.restoreCtxDRAM(1, next)
		}}
		// Boot FSM first (it is what lets the exit flow reach DRAM).
		return []step{bootUp, memUp, restore}

	case p.effEMRAM():
		restore := step{name: "restore-ctx-emram", run: func(next func()) {
			p.restoreCtxEMRAM(1, next)
		}}
		return []step{memUp, restore}

	default:
		restore := step{name: "restore-ctx-sram", run: func(next func()) {
			p.saSRAM.SetState(sram.Active)
			p.computeSRAM.SetState(sram.Active)
			p.bootSRAM.SetState(sram.Active)
			saT := pmu.NewSRAMTarget(p.saSRAM)
			cpT := pmu.NewSRAMTarget(p.computeSRAM)
			// The reference images were serialized once at New (the context
			// is immutable), so verification compares the retained bytes
			// with them in place.
			saOK, err := p.saSRAM.Equal(0, p.saImage)
			if err != nil {
				p.fail("platform: SA context restore: %v", err)
				return
			}
			cpOK, err := p.computeSRAM.Equal(0, p.cpImage)
			if err != nil {
				p.fail("platform: compute context restore: %v", err)
				return
			}
			if !saOK || !cpOK {
				p.fail("platform: restored context mismatch")
				return
			}
			p.flowStats.ctxVerified++
			lat := saT.RestoreLatency(len(p.saImage))
			if l := cpT.RestoreLatency(len(p.cpImage)); l > lat {
				lat = l
			}
			p.flowStats.ctxRestore = lat
			p.sched.After(lat, "flow.restore-ctx-sram", next)
		}}
		return []step{memUp, restore}
	}
}

// pml delivery dispatch: the platform wires these at New time.
func (p *Platform) handleP2C(m pml.Message) {
	switch m.Kind {
	case pml.TimerValue:
		next := p.p2cContinue
		p.p2cContinue = nil
		err := p.hub.AdoptTimer(m.Value, func(_ sim.Time) {
			if next != nil {
				next()
			}
		})
		if err != nil {
			p.fail("platform: chipset timer adopt: %v", err)
		}
	}
}

func (p *Platform) handleC2P(m pml.Message) {
	switch m.Kind {
	case pml.TimerValue:
		if err := p.mainTimer.Set(m.Value); err != nil {
			p.fail("platform: main timer reload: %v", err)
			return
		}
		if next := p.c2pContinue; next != nil {
			p.c2pContinue = nil
			next()
		}
	}
}
