package platform

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"odrips/internal/aonio"
	"odrips/internal/chipset"
	"odrips/internal/clock"
	"odrips/internal/ctxstore"
	"odrips/internal/dram"
	"odrips/internal/ltr"
	"odrips/internal/mee"
	"odrips/internal/pml"
	"odrips/internal/pmu"
	"odrips/internal/power"
	"odrips/internal/sgx"
	"odrips/internal/sim"
	"odrips/internal/sram"
	"odrips/internal/timer"
)

// phase is the fine-grained power level within the four architectural
// states: trailer covers the hand-over windows (timer migration, FET slew,
// crystal restart) where almost everything is already down.
type phase int

const (
	phActive phase = iota
	phEntry
	phTrailer
	phIdle
	phExit
)

// Platform is a fully assembled mobile system.
type Platform struct {
	cfg Config
	bud Budget

	sched *sim.Scheduler
	meter *power.Meter

	// Board.
	xtal24 *clock.Oscillator
	xtal32 *clock.Oscillator
	ring   *aonio.Ring
	fet    *aonio.FET
	mem    *dram.Module

	// Processor.
	procDom     *clock.Domain
	mainTimer   *timer.FastCounter
	saSRAM      *sram.Array
	computeSRAM *sram.Array
	bootSRAM    *sram.Array
	bootFSM     *pmu.BootFSM
	linkP2C     *pml.Link
	linkC2P     *pml.Link
	ltrTable    *ltr.Table
	cstates     []pmu.CState
	ctxRegion   sgx.Range
	eng         *mee.Engine
	ctxImage    []byte
	ctxHash     [32]byte
	emram       []byte // ODRIPS-MRAM: on-chip non-volatile context store

	// emramHash memoizes sha256(emram) for the boundary fingerprint;
	// every emram write either installs the matching digest (the save
	// flow rewrites ctxImage, whose digest is precomputed) or clears
	// emramHashOK (fault injection flips bits in place).
	emramHash   [32]byte
	emramHashOK bool

	// Precomputed per-cycle constants and pooled restore buffers. The
	// context images, their digest and the PMU vector belong to the
	// template and are never written; restores verify into fixed buffers
	// so the steady-state cycle path does not allocate.
	saImage    []byte
	cpImage    []byte
	mcCfg      []byte
	pmuVec     []byte
	saBuf      []byte
	cpBuf      []byte
	restoreBuf []byte

	// Chipset.
	hub *chipset.Hub

	// Power components (the ones the flows drive directly).
	cCompute, cSA, cWake, cPMU   *power.Component
	cChipsetAon, cMonitor, cMisc *power.Component
	cFET                         *power.Component
	cVRFixed, cVRAonIO           *power.Component
	cVRSram, cVRPmu              *power.Component

	// Derived active draws (nominal mW).
	computeActiveMW float64
	saActiveMW      float64
	saEntryMW       float64
	saExitMW        float64

	// Run state.
	tracker       *tracker
	state         power.State
	inFlow        bool
	err           error
	flowStats     flowStats
	wakeCount     map[chipset.WakeSource]uint64
	shallowCounts map[string]uint64

	// In-flight flow plumbing.
	timerEpoch  sim.Time
	cycleDone   func()
	idleFor     sim.Duration
	plan        wakePlan
	armedEv     sim.Event
	p2cContinue func()
	c2pContinue func()
	pendingWake *chipset.WakeSource
	quiesce     []func()
	flowTrace   []FlowStep // ring of the last flowTraceCap steps
	flowHead    int        // oldest step once the ring is full

	// Fault plane (nil unless InjectFaults installed a plan) and the
	// recovery-edge state it drives.
	fplane      *faultPlane
	cycleIdx    int                 // 0-based cycle index within RunCycles
	degraded    bool                // demoted to DRIPS-with-retention-SRAM
	wantAbort   bool                // next entry-racing wake aborts instead of latching
	abortWake   *chipset.WakeSource // abort requested; unwind at next step boundary
	entryStartE power.Energy        // battery energy at entry start (abort accounting)
	entryM      entryMilestones

	// Fast-forward engine state (DESIGN.md §12).
	ff ffState
}

// entryMilestones tracks which entry stages completed, so an abort unwinds
// exactly the deepest already-safe state.
type entryMilestones struct {
	vrOff         bool
	ctxSaved      bool
	selfRefresh   bool
	timerMigrated bool
	gatedIOs      bool
	clockShut     bool
}

type flowStats struct {
	entries, exits         uint64
	entryTotal, exitTotal  sim.Duration
	entryMax, exitMax      sim.Duration
	ctxSaveLat, ctxRestore sim.Duration
	ctxVerified            uint64
}

// CanonicalConfig maps cfg to the representative of its New class: knobs
// that provably cannot change a measured duration or energy are
// normalized to their zero form, so every cache keyed by a configuration
// (the memo plane's classes, the experiments' point memos) shares entries
// across configurations that differ only in how they state a default —
// the TDP study's 15 W row, a reinit ablation's 1.0 scale and an explicit
// budget default all land on the plain configuration. Every rule is an
// identity of New, not an approximation:
func CanonicalConfig(cfg Config) Config {
	// The seed only varies the context bytes; every measured quantity —
	// traffic, latency, energy — is size-based, never content-based (the
	// same argument the fast-forward manifest makes for DRAM content).
	cfg.Seed = 0
	// New ignores TDPWatts 0 and 15 alike (15 W is the calibration point).
	if cfg.TDPWatts == 15 {
		cfg.TDPWatts = 0
	}
	// A scale of exactly 1 multiplies the reinit latencies by 1.0 — a
	// float no-op.
	if cfg.ExitReinitScale == 1 {
		cfg.ExitReinitScale = 0
	}
	// Restating a budget or FET default changes nothing.
	if cfg.LLCDirtyFraction == llcDirtyFraction {
		cfg.LLCDirtyFraction = 0
	}
	if cfg.FETLeakageFraction == aonio.DefaultLeakageFraction {
		cfg.FETLeakageFraction = 0
	}
	return cfg
}

// New assembles and boots a platform. It builds a one-off template for
// cfg.Seed; Templates.New assembles the same platform from a shared one.
func New(cfg Config) (*Platform, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return assemble(cfg, newTemplate(cfg.Seed))
}

// assemble builds and boots a platform of the validated cfg around tpl,
// the template of cfg.Seed.
func assemble(cfg Config, tpl *template) (*Platform, error) {
	bud := Skylake()
	if cfg.Generation == GenHaswell {
		bud = Haswell()
	}
	if cfg.ExitReinitScale > 0 {
		bud.ReinitWake = sim.Duration(float64(bud.ReinitWake) * cfg.ExitReinitScale)
		bud.ReinitAONIO = sim.Duration(float64(bud.ReinitAONIO) * cfg.ExitReinitScale)
		bud.ReinitCtx = sim.Duration(float64(bud.ReinitCtx) * cfg.ExitReinitScale)
		bud.ReinitMRAM = sim.Duration(float64(bud.ReinitMRAM) * cfg.ExitReinitScale)
	}
	if cfg.LLCDirtyFraction > 0 {
		bud.LLCDirtyFraction = cfg.LLCDirtyFraction
	}
	if cfg.TDPWatts > 0 && cfg.TDPWatts != 15 {
		// Active-state power tracks the TDP class sublinearly (lower-TDP
		// parts run lower voltage/frequency but are not proportionally
		// cheaper); transitions scale half as hard; the always-on idle
		// infrastructure — the thing ODRIPS attacks — stays put.
		f := cfg.TDPWatts / 15
		activeScale := 0.25 + 0.75*f
		transScale := 0.6 + 0.4*f
		for freq, mw := range bud.C0TargetMW {
			bud.C0TargetMW[freq] = mw * activeScale
		}
		for idx, mw := range bud.ShallowTargetMW {
			bud.ShallowTargetMW[idx] = mw * activeScale
		}
		bud.EntryTargetMW *= transScale
		bud.ExitTargetMW *= transScale
	}
	s := sim.NewScheduler()
	m := power.NewMeter(s, bud.EffActive)

	p := &Platform{
		cfg:           cfg,
		bud:           bud,
		sched:         s,
		meter:         m,
		wakeCount:     make(map[chipset.WakeSource]uint64),
		shallowCounts: make(map[string]uint64),
		ff:            ffState{bundle: newFFBundle(""), ops: newFFOpTable(nil)},
	}

	// Board crystals.
	p.xtal24 = clock.NewOscillator(s, "xtal24", 24_000_000, cfg.XtalFastPPB, bud.Xtal24Startup)
	p.xtal32 = clock.NewOscillator(s, "xtal32", 32_768, cfg.XtalSlowPPB, 0)
	cX24 := m.Register("board.xtal24", "board", power.Delivered)
	cX32 := m.Register("board.xtal32", "board", power.Delivered)
	p.xtal24.OnPower = func(on bool) {
		if on {
			m.Set(cX24, bud.Xtal24MW)
		} else {
			m.Set(cX24, 0)
		}
	}
	p.xtal32.OnPower = func(on bool) {
		if on {
			m.Set(cX32, bud.Xtal32MW)
		} else {
			m.Set(cX32, 0)
		}
	}
	p.xtal24.PowerOn()
	p.xtal32.PowerOn()
	s.RunFor(sim.Millisecond) // crystals stable before bring-up

	// Memory.
	memCfg := dram.Config{
		Tech:          cfg.MainMemory,
		CapacityBytes: dramCapacityBytes,
		TransferMTps:  cfg.DRAMMTps,
		Channels:      2,
		BytesPerBeat:  8,
	}
	p.mem = dram.New(memCfg)
	cDram := m.Register("dram.module", "dram", power.Delivered)
	p.mem.OnDraw = func(mw float64) { m.Set(cDram, mw) }
	m.Set(cDram, p.mem.IdleDrawMW(dram.Active))

	// Processor AON IO ring and board FET.
	p.ring = aonio.NewRing(aonio.StandardIOs())
	cRing := m.Register("proc.aonio", "processor", power.Delivered)
	p.ring.OnDraw = func(mw float64) { m.Set(cRing, mw*bud.ProcessLeakageScale) }
	m.Set(cRing, p.ring.TotalDrawMW()*bud.ProcessLeakageScale)
	p.fet = aonio.NewFET(p.ring)
	if cfg.FETLeakageFraction > 0 {
		p.fet.LeakageFraction = cfg.FETLeakageFraction
	}
	p.cFET = m.Register("board.fet", "board", power.Delivered)

	// Processor clock domain and main timer (TSC).
	p.procDom = clock.NewDomain("proc.clk24", p.xtal24)
	p.mainTimer = timer.NewFastCounter(s, "proc.main-timer", p.procDom)
	if err := p.mainTimer.Set(0); err != nil {
		return nil, fmt.Errorf("platform: main timer: %w", err)
	}
	p.timerEpoch = s.Now()

	// Save/restore SRAMs.
	p.saSRAM = sram.New("sa-sr", sram.ProcessorProcess, bud.SASRAMBytes)
	p.computeSRAM = sram.New("compute-sr", sram.ProcessorProcess, bud.ComputeSRAMBytes)
	p.bootSRAM = sram.New("boot", sram.ProcessorProcess, ctxstore.BootImageSize)
	for _, w := range []struct {
		arr  *sram.Array
		name string
	}{
		{p.saSRAM, "proc.sram.sa"},
		{p.computeSRAM, "proc.sram.compute"},
		{p.bootSRAM, "proc.sram.boot"},
	} {
		comp := m.Register(w.name, "processor", power.Delivered)
		arr := w.arr
		arr.OnDraw = func(mw float64) { m.Set(comp, mw*bud.ProcessLeakageScale) }
		arr.SetState(sram.Active)
	}
	p.bootFSM = pmu.NewBootFSM(p.bootSRAM)

	// Chipset hub.
	p.hub = chipset.New(s, p.xtal24, p.xtal32, p.fet)
	if err := p.hub.Calibrate(); err != nil {
		return nil, err
	}
	p.hub.OnWake = p.onWake

	// PML links (16-cycle deterministic latency each way).
	p.linkP2C = pml.NewLink(s, p.hub.Dom24(), bud.PMLCycles)
	p.linkC2P = pml.NewLink(s, p.hub.Dom24(), bud.PMLCycles)
	powered := func() bool { return p.ring.Usable(aonio.IOPMLToChipset) }
	p.linkP2C.Powered = powered
	p.linkC2P.Powered = powered
	p.linkP2C.OnDeliver = p.handleP2C
	p.linkC2P.OnDeliver = p.handleC2P

	// LTR/TNTE and C-states.
	p.ltrTable = ltr.NewTable(s)
	if cfg.Generation == GenHaswell {
		p.cstates = pmu.HaswellCStates()
	} else {
		p.cstates = pmu.SkylakeCStates()
	}

	// Processor context, shared read-only with the template, and, when
	// configured, the protected DRAM region with its metadata copied from
	// the template's formatted tree.
	p.ctxImage = tpl.image
	p.ctxHash = tpl.hash
	p.saImage = tpl.saImage
	p.cpImage = tpl.cpImage
	p.pmuVec = tpl.pmuVec
	p.saBuf = make([]byte, len(p.saImage))
	p.cpBuf = make([]byte, len(p.cpImage))
	p.mcCfg = p.mcConfig()
	if cfg.Techniques.Has(CtxSGXDRAM) {
		blocks := tpl.ctxBlocks()
		p.restoreBuf = make([]byte, blocks*mee.BlockSize)
		var err error
		p.ctxRegion, err = ctxRegion(blocks)
		if err != nil {
			return nil, err
		}
		f, err := tpl.formatted()
		if err != nil {
			return nil, err
		}
		if l := f.Layout(); l.Base != p.ctxRegion.Base || l.DataBlocks != blocks {
			return nil, fmt.Errorf("platform: template region %#x+%d blocks, platform region %#x+%d blocks", l.Base, l.DataBlocks, p.ctxRegion.Base, blocks)
		}
		p.eng, err = mee.NewFormatted(p.mem, f, mee.DefaultCacheLines)
		if err != nil {
			return nil, err
		}
	}

	// Flow-driven logic components.
	p.cCompute = m.Register("proc.compute", "processor", power.Delivered)
	p.cSA = m.Register("proc.sa", "processor", power.Delivered)
	p.cWake = m.Register("proc.wake-timer", "processor", power.Delivered)
	p.cPMU = m.Register("proc.pmu", "processor", power.Delivered)
	p.cChipsetAon = m.Register("chipset.aon", "chipset", power.Delivered)
	p.cMonitor = m.Register("chipset.monitor", "chipset", power.Delivered)
	p.cMisc = m.Register("board.misc", "board", power.Delivered)
	p.cVRFixed = m.Register("vr.fixed", "power-delivery", power.Direct)
	p.cVRAonIO = m.Register("vr.aonio", "power-delivery", power.Direct)
	p.cVRSram = m.Register("vr.sram", "power-delivery", power.Direct)
	p.cVRPmu = m.Register("vr.pmu", "power-delivery", power.Direct)

	p.deriveActiveDraws()

	// Baseline wake monitoring: the chipset samples the EC thermal line
	// with the fast clock (part of the chipset AON budget).
	if err := p.hub.MonitorThermal(p.xtal24); err != nil {
		return nil, err
	}

	p.tracker = newTracker(s, m)
	p.state = power.Active
	p.applyPhase(phActive)
	return p, nil
}

func seedKey(key *[32]byte, seed int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	*key = sha256.Sum256(append([]byte("odrips-mee-key"), b[:]...))
}

// deriveActiveDraws backs the big active draws out of the battery-level
// targets so the C0/entry/exit totals hit the calibrated 3 W / 1 W / 1.5 W.
func (p *Platform) deriveActiveDraws() {
	bud := p.bud
	scale := bud.ProcessLeakageScale
	sramActive := (p.saSRAM.DrawMW(sram.Active) + p.computeSRAM.DrawMW(sram.Active) + p.bootSRAM.DrawMW(sram.Active)) * scale
	fixed := bud.WakeTimerActiveMW + p.ring.TotalDrawMW()*scale + sramActive +
		bud.PMUActiveMW + bud.Xtal24MW + bud.Xtal32MW + bud.ChipsetAonBusyMW +
		bud.MonitorFastMW + bud.BoardMiscBusyMW + bud.DRAMActiveRefMW
	direct := bud.VRFixedMW + bud.VRAonIOMW + bud.VRSramMW + bud.VRPmuMW

	c0 := bud.C0TargetMW[p.cfg.CoreFreqMHz]
	total := bud.computeDrawForTarget(c0, bud.EffActive, fixed, direct)
	p.saActiveMW = total * 0.12
	p.computeActiveMW = total - p.saActiveMW
	p.saEntryMW = bud.computeDrawForTarget(bud.EntryTargetMW, bud.EffTransition, fixed, direct)
	p.saExitMW = bud.computeDrawForTarget(bud.ExitTargetMW, bud.EffTransition, fixed, direct)
}

// applyPhase sets the flow-driven component draws and the power-delivery
// efficiency for a phase. Hardware-owned components (SRAM arrays, DRAM,
// AON IO ring, crystals) push their own draws on state changes.
func (p *Platform) applyPhase(ph phase) {
	bud := p.bud
	m := p.meter
	idleTech := p.effTech()

	switch ph {
	case phActive:
		m.SetEfficiency(bud.EffActive)
		m.Set(p.cCompute, p.computeActiveMW)
		m.Set(p.cSA, p.saActiveMW)
		m.Set(p.cWake, bud.WakeTimerActiveMW)
		m.Set(p.cPMU, bud.PMUActiveMW)
		m.Set(p.cChipsetAon, bud.ChipsetAonBusyMW)
		m.Set(p.cMonitor, bud.MonitorFastMW)
		m.Set(p.cMisc, bud.BoardMiscBusyMW)
	case phEntry, phExit:
		m.SetEfficiency(bud.EffTransition)
		m.Set(p.cCompute, 0)
		if ph == phEntry {
			m.Set(p.cSA, p.saEntryMW)
		} else {
			m.Set(p.cSA, p.saExitMW)
		}
		m.Set(p.cWake, bud.WakeTimerIdleMW)
		m.Set(p.cPMU, bud.PMUActiveMW)
		m.Set(p.cChipsetAon, bud.ChipsetAonBusyMW)
		m.Set(p.cMonitor, bud.MonitorFastMW)
		m.Set(p.cMisc, bud.BoardMiscBusyMW)
	case phTrailer:
		m.SetEfficiency(bud.EffTransition)
		m.Set(p.cCompute, 0)
		m.Set(p.cSA, bud.TrailerSAMW)
		m.Set(p.cWake, 0)
		m.Set(p.cPMU, bud.PMUAonIdleMW)
		m.Set(p.cChipsetAon, bud.ChipsetAonIdleMW)
		m.Set(p.cMisc, bud.BoardMiscIdleMW)
	case phIdle:
		m.SetEfficiency(bud.EffIdle)
		m.Set(p.cCompute, 0)
		m.Set(p.cSA, 0)
		if idleTech.Has(WakeUpOff) {
			m.Set(p.cWake, 0)
			m.Set(p.cMonitor, bud.MonitorSlowMW)
		} else {
			m.Set(p.cWake, bud.WakeTimerIdleMW)
			m.Set(p.cMonitor, bud.MonitorFastMW)
		}
		switch {
		case idleTech == ODRIPS && p.cfg.MainMemory == dram.PCM:
			m.Set(p.cPMU, bud.PMUAonGatedPCMMW)
		case idleTech == ODRIPS || (idleTech.Has(WakeUpOff|AONIOGate) && p.effEMRAM()):
			m.Set(p.cPMU, bud.PMUAonGatedMW)
		default:
			m.Set(p.cPMU, bud.PMUAonIdleMW)
		}
		m.Set(p.cChipsetAon, bud.ChipsetAonIdleMW)
		m.Set(p.cMisc, bud.BoardMiscIdleMW)
	}

	// Regulator quiescent draws follow the rails they serve.
	m.Set(p.cVRFixed, bud.VRFixedMW)
	if p.ring.Gated() {
		m.Set(p.cVRAonIO, 0)
	} else {
		m.Set(p.cVRAonIO, bud.VRAonIOMW)
	}
	if p.saSRAM.State() == sram.Off && p.computeSRAM.State() == sram.Off {
		m.Set(p.cVRSram, 0)
	} else {
		m.Set(p.cVRSram, bud.VRSramMW)
	}
	if ph == phIdle && p.cfg.Techniques.Has(WakeUpOff) {
		m.Set(p.cVRPmu, bud.VRPmuShedMW)
	} else {
		m.Set(p.cVRPmu, bud.VRPmuMW)
	}
	m.Set(p.cFET, p.fet.ResidualLeakageMW())
}

// Scheduler exposes the simulation clock (tests and experiments).
func (p *Platform) Scheduler() *sim.Scheduler { return p.sched }

// Meter exposes the energy accountant.
func (p *Platform) Meter() *power.Meter { return p.meter }

// Hub exposes the chipset wake hub.
func (p *Platform) Hub() *chipset.Hub { return p.hub }

// Mem exposes the memory module. It is the only way anything outside the
// platform reaches DRAM, so it is where the fast-forward engine gives up
// the bytes it keeps virtual: the call marks the module exposed, drops MEE
// op replay for the rest of the current cycle, and materializes the
// context region's canonical bytes before returning (DESIGN.md §12).
func (p *Platform) Mem() *dram.Module {
	p.ff.memExposed = true
	p.ff.cycleOK = false
	if err := p.ffRealize(); err != nil {
		p.fail("platform: materialize for Mem: %v", err)
	}
	return p.mem
}

// CtxRegion returns the SGX-protected DRAM region holding the context
// (zero Range unless CtxSGXDRAM is enabled).
func (p *Platform) CtxRegion() sgx.Range { return p.ctxRegion }

// Active reports whether the platform is currently in C0. Device models
// use it to decide between draining their buffers and accumulating.
func (p *Platform) Active() bool { return p.state == power.Active }

// Wake injects an external wake event through the chipset's always-on
// domain (a peripheral interrupt). Safe to call in any state: wakes racing
// the entry flow are latched, wakes while active or exiting are no-ops.
func (p *Platform) Wake() { p.hub.ExternalWake() }

// OnQuiesce registers a callback invoked when a RunCycles invocation has
// completed its final cycle. Device models with self-scheduling traffic
// register their Stop here so the event queue can drain.
func (p *Platform) OnQuiesce(fn func()) { p.quiesce = append(p.quiesce, fn) }

// LTR exposes the latency-tolerance table so device models can report.
func (p *Platform) LTR() *ltr.Table { return p.ltrTable }

// MaintenanceDuration returns the kernel-maintenance busy time for the
// configured core frequency and memory rate (§7: 100–300 ms; 150 ms at the
// baseline 0.8 GHz).
func (p *Platform) MaintenanceDuration() sim.Duration {
	secs := p.bud.MaintenanceCycles / (float64(p.cfg.CoreFreqMHz) * 1e6)
	secs *= p.bud.MaintSlowdownByMTps[p.cfg.DRAMMTps]
	return sim.FromSeconds(secs)
}

// TimerCounts converts a duration to main-timer (24 MHz nominal) counts,
// as PMU firmware does when arming wake events.
func TimerCounts(d sim.Duration) uint64 {
	return uint64(d.Seconds()*24e6 + 0.5)
}
