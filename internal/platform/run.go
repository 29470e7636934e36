package platform

import (
	"fmt"
	"math"

	"odrips/internal/chipset"
	"odrips/internal/clock"
	"odrips/internal/pmu"
	"odrips/internal/power"
	"odrips/internal/sim"
	"odrips/internal/workload"
)

// Result summarizes a connected-standby run.
type Result struct {
	Config   Config
	Duration sim.Duration
	Cycles   int

	// AvgPowerMW is the battery average power over the whole run — the
	// quantity of Fig. 6.
	AvgPowerMW float64

	// Per-state residency shares (sum to 1) and average power while
	// resident — the inputs of Equation 1.
	Residency    map[power.State]float64
	StatePowerMW map[power.State]float64
	StateEnergyJ map[power.State]float64

	// IdleByComponent is the battery energy per component while in
	// DRIPS/ODRIPS, the Fig. 1(b) breakdown.
	IdleByComponent map[string]float64

	// Flow latencies.
	EntryAvg, EntryMax  sim.Duration
	ExitAvg, ExitMax    sim.Duration
	CtxSave, CtxRestore sim.Duration
	CtxVerified         uint64

	// Wake accounting.
	WakeCounts map[string]uint64

	// ShallowIdles counts intervals parked in C1–C8 because LTR or TNTE
	// forbade DRIPS, keyed by state name.
	ShallowIdles map[string]uint64

	// TimerDriftPPB is the main timer's deviation from the ideal fast
	// clock over the run, in parts per billion (§4.1.3's 1 ppb target,
	// plus sub-count hand-over losses).
	TimerDriftPPB float64

	// CycleEnergy feeds the break-even analysis: average transition
	// (entry+exit) battery energy per cycle and idle-state battery power.
	CycleEnergy power.CycleEnergy

	// Faults reports the injection plane's accounting for the run. Zero
	// when no fault plan is installed.
	Faults FaultStats
}

// IdlePowerMW returns the average battery power in the idle state.
func (r Result) IdlePowerMW() float64 { return r.StatePowerMW[power.Idle] }

// RunCycles executes the given connected-standby cycles and reports.
func (p *Platform) RunCycles(cycles []workload.Cycle) (Result, error) {
	if len(cycles) == 0 {
		return Result{}, fmt.Errorf("platform: no cycles to run")
	}
	start := p.sched.Now()
	idx := 0
	var startCycle func()
	startCycle = func() {
		if p.err != nil {
			return
		}
		// Each iteration is one cycle boundary: finalize any in-flight
		// recording against it, then either replay memoized cycles (and
		// loop to the next boundary) or launch one real cycle.
		for {
			p.meter.SettleAll()
			eligible := p.ffCycleEligible()
			var fp [32]byte
			var ph [2]clock.Phase
			if eligible {
				fp, ph = p.ffBoundary()
			}
			p.ffFinalizeRecording(eligible, fp)
			if p.err != nil {
				return
			}
			if idx >= len(cycles) {
				for _, fn := range p.quiesce {
					fn()
				}
				p.quiesce = nil
				return
			}
			c := cycles[idx]
			p.ffLatchCycle()
			if eligible {
				if n := p.ffTryReplay(fp, ph, cycles, idx); n > 0 {
					idx += n
					p.cycleIdx = idx - 1
					continue
				}
				p.ffBeginRecording(ffKey{fp: fp, active: c.Active, idle: c.Idle, wake: c.Wake}, ph)
			}
			p.cycleIdx = idx
			idx++
			p.runCycle(c, startCycle)
			return
		}
	}
	startCycle()
	p.sched.Run()
	if p.err != nil {
		return Result{}, p.err
	}
	if idx != len(cycles) {
		return Result{}, fmt.Errorf("platform: run stalled after %d/%d cycles", idx, len(cycles))
	}
	if p.ff.memExposed {
		// A caller holding the module reads real bytes between runs.
		if err := p.ffRealize(); err != nil {
			return Result{}, fmt.Errorf("platform: materialize at run end: %v", err)
		}
	}
	return p.buildResult(start, len(cycles)), nil
}

// runCycle: active maintenance period, then idle until the planned wake.
func (p *Platform) runCycle(c workload.Cycle, done func()) {
	active := c.Active
	if active <= 0 {
		active = p.MaintenanceDuration()
	}
	// The OS arms its next wake before going idle; TNTE sees it.
	p.sched.After(active, "workload.maintenance-done", func() {
		if p.err != nil {
			return
		}
		idle := c.Idle
		if err := p.ltrTable.SetTimer("os-wake", p.sched.Now().Add(idle)); err != nil {
			p.fail("platform: TNTE arm: %v", err)
			return
		}
		if !p.cfg.ForceDeepest {
			st, err := pmu.SelectState(p.cstates, p.ltrTable)
			if err != nil {
				p.fail("platform: %v", err)
				return
			}
			if st.Index < 10 {
				// Too shallow for DRIPS: park in the selected runtime
				// idle state for the interval. Shallow residency counts
				// as Active&Transitions in the Equation-1 sense (the
				// platform never reaches the deep idle state).
				p.shallowIdle(st, idle, done)
				return
			}
		}
		plan := wakePlan{kind: wakeKind(c.Wake), after: idle}
		p.enterIdle(idle, plan, done)
	})
}

func wakeKind(k workload.WakeKind) chipset.WakeSource {
	switch k {
	case workload.WakeExternal:
		return chipset.WakeExternal
	case workload.WakeThermal:
		return chipset.WakeThermal
	default:
		return chipset.WakeTimer
	}
}

func (p *Platform) buildResult(start sim.Time, cycles int) Result {
	p.tracker.finish()
	total := p.sched.Now().Sub(start)
	r := Result{
		Config:          p.cfg,
		Duration:        total,
		Cycles:          cycles,
		Residency:       make(map[power.State]float64),
		StatePowerMW:    make(map[power.State]float64),
		StateEnergyJ:    make(map[power.State]float64),
		IdleByComponent: make(map[string]float64),
		WakeCounts:      make(map[string]uint64),
	}
	var totalE power.Energy
	for _, st := range power.States() {
		d := p.tracker.residency[st]
		e := p.tracker.energy[st]
		totalE = totalE.Add(e)
		if total > 0 {
			r.Residency[st] = float64(d) / float64(total)
		}
		if d > 0 {
			r.StatePowerMW[st] = e.Joules() * 1e3 / d.Seconds()
		}
		r.StateEnergyJ[st] = e.Joules()
	}
	if total > 0 {
		r.AvgPowerMW = totalE.Joules() * 1e3 / total.Seconds()
	}
	for i, c := range p.meter.Ordered() {
		r.IdleByComponent[c.Name()] = p.tracker.idleByCmp[i].Joules()
	}
	fs := p.flowStats
	if fs.entries > 0 {
		r.EntryAvg = fs.entryTotal / sim.Duration(fs.entries)
		r.EntryMax = fs.entryMax
	}
	if fs.exits > 0 {
		r.ExitAvg = fs.exitTotal / sim.Duration(fs.exits)
		r.ExitMax = fs.exitMax
	}
	r.CtxSave = fs.ctxSaveLat
	r.CtxRestore = fs.ctxRestore
	r.CtxVerified = fs.ctxVerified
	for src, n := range p.wakeCount {
		r.WakeCounts[src.String()] = n
	}
	r.ShallowIdles = make(map[string]uint64)
	for name, n := range p.shallowCounts {
		r.ShallowIdles[name] = n
	}
	r.TimerDriftPPB = p.timerDriftPPB()
	if p.fplane != nil {
		r.Faults = p.fplane.stats
	}

	transJ := p.tracker.energy[power.Entry].Add(p.tracker.energy[power.Exit]).Joules()
	if cycles > 0 {
		r.CycleEnergy = power.CycleEnergy{
			TransitionUJ: transJ * 1e6 / float64(cycles),
			IdleMW:       r.StatePowerMW[power.Idle],
		}
	}
	return r
}

// timerDriftPPB compares the main timer against the ideal fast clock.
func (p *Platform) timerDriftPPB() float64 {
	elapsed := p.sched.Now().Sub(p.timerEpoch).Seconds()
	if elapsed <= 0 {
		return 0
	}
	var v float64
	if p.mainTimer.Running() || !p.cfg.Techniques.Has(WakeUpOff) {
		v = float64(p.mainTimer.Read())
	} else if p.hub.Unit() != nil {
		v = float64(p.hub.Unit().Now())
	}
	expected := elapsed * 24e6 * (1 + float64(p.cfg.XtalFastPPB)/1e9)
	if expected == 0 {
		return 0
	}
	return math.Abs(v-expected) / expected * 1e9
}

// Err returns the first flow error, if any (nil on healthy platforms).
func (p *Platform) Err() error { return p.err }

// shallowIdle parks the platform in a C1–C8 state for the interval: the
// compute draw drops to hit the state's calibrated battery target, and
// everything else stays at its active level (DRAM stays out of
// self-refresh, the 24 MHz clock keeps running, no context moves).
func (p *Platform) shallowIdle(st pmu.CState, idle sim.Duration, done func()) {
	target, ok := p.bud.ShallowTargetMW[st.Index]
	if !ok {
		target = p.bud.C0TargetMW[p.cfg.CoreFreqMHz] // C0/C1-adjacent fallback
	}
	p.shallowCounts[st.Name]++
	// Back the residual draw out of the battery target the same way the
	// active draws are derived: fixed = every delivered draw except the
	// compute/SA pair being rescaled (NominalPowerMW also sums the direct
	// regulator draws, which are removed separately).
	saved := p.meter.Lookup("proc.compute").DrawMW() + p.meter.Lookup("proc.sa").DrawMW()
	direct := p.bud.VRFixedMW + p.bud.VRAonIOMW + p.bud.VRSramMW + p.bud.VRPmuMW
	fixedMW := p.meter.NominalPowerMW() - saved - direct
	residual := p.bud.computeDrawForTarget(target, p.bud.EffActive, fixedMW, direct)
	p.meter.Set(p.cCompute, residual)
	p.meter.Set(p.cSA, 0)
	p.sched.After(idle+st.EntryLatency+st.ExitLatency, "workload.shallow-idle", func() {
		p.applyPhase(phActive)
		done()
	})
}
