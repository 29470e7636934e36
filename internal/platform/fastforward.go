package platform

import (
	"fmt"

	"odrips/internal/mee"
	"odrips/internal/pmu"
	"odrips/internal/power"
	"odrips/internal/sim"
)

// This file is the steady-state fast-forward engine (DESIGN.md §12).
// Connected-standby runs are long sequences of near-identical cycles; the
// engine memoizes the two kinds of redundancy they carry:
//
//   - MEE op replay: the per-cycle context save/restore through the MEE is
//     a strictly periodic op sequence whose observable effects (traffic
//     counters, latency, root-counter advance) repeat exactly. After one
//     period is recorded, later saves/restores advance the counters
//     arithmetically and skip the crypto and DRAM traffic
//     (mee.OpRecord/ReplayOp), with ReplayMaterialize/ReplayWarm
//     rebuilding the canonical bytes before any real engine op.
//
//   - Cycle replay: when the full behavioral fingerprint of the platform
//     at a cycle boundary recurs together with the same workload.Cycle
//     parameters, the whole cycle is replayed as exact fixed-point deltas
//     (energy, residency, latencies, counters, flow-trace steps) over a
//     bulk scheduler time advance.
//
// Both layers are gated per cycle: a cycle may only record or replay when
// the fault plane has nothing left to inject and the event queue is empty
// at the boundary (so no external event can observe or mutate skipped
// state mid-cycle). Every replayed quantity is integer/fixed-point exact,
// so results are byte-identical to full simulation.

// FFMode selects the fast-forward engine's behavior.
type FFMode int32

const (
	// FFOn memoizes and replays steady-state work (the default).
	FFOn FFMode = iota
	// FFOff always simulates in full.
	FFOff
	// FFVerify simulates in full and diffs every memoized quantity
	// against the record, failing the run on any divergence.
	FFVerify
)

// String renders the flag form.
func (m FFMode) String() string {
	switch m {
	case FFOff:
		return "off"
	case FFVerify:
		return "verify"
	default:
		return "on"
	}
}

// ParseFFMode parses the -fastforward flag values on|off|verify.
func ParseFFMode(s string) (FFMode, error) {
	switch s {
	case "on":
		return FFOn, nil
	case "off":
		return FFOff, nil
	case "verify":
		return FFVerify, nil
	}
	return FFOn, fmt.Errorf("platform: fast-forward mode %q (want on, off, or verify)", s)
}

// ResetPersistentMemos is a no-op kept for the benchmark harness in
// _perfbench/: the platform package holds no process state, and the
// memostore.SetDefault the harness calls first already rebuilds
// experiments.Default() with a fresh plane.
func ResetPersistentMemos() {}

// SetFastForward overrides this platform's mode; New builds every
// platform in FFOn. The mode is deliberately not part of Config: results
// are byte-identical across modes, so it must not leak into
// Result.Config. Illegal mid-flow.
func (p *Platform) SetFastForward(m FFMode) error {
	if p.inFlow {
		return fmt.Errorf("platform: SetFastForward during a flow")
	}
	p.ff.mode = m
	return nil
}

// FFStats reports what the fast-forward engine did during a run.
type FFStats struct {
	// MEEOpsReplayed counts context saves/restores replayed from the op
	// memo; Materializations counts canonical-state rebuilds before a
	// real engine op.
	MEEOpsReplayed   uint64
	Materializations uint64

	// CyclesRecorded counts cycle records memoized (a boundary
	// fingerprint plus phase windows); CyclesReplayed counts whole
	// cycles fast-forwarded.
	CyclesRecorded uint64
	CyclesReplayed uint64
}

// FFStats returns the engine's counters so far.
func (p *Platform) FFStats() FFStats { return p.ff.stats }

// ffState is the per-platform fast-forward state.
type ffState struct {
	mode FFMode

	// cycleOK is latched at each cycle boundary: the upcoming cycle may
	// record into or replay from the memo.
	cycleOK bool

	// MEE op memo. meePrimed marks the live engine as being in the
	// canonical post-import+restore state (the state every recorded save
	// starts from); meeVirtual marks DRAM bytes and the metadata cache
	// as stale because ops were replayed over them.
	meePrimed   bool
	meeVirtual  bool
	haveSave    bool
	haveRestore bool
	saveLat     sim.Duration
	restoreLat  sim.Duration
	saveOp      mee.OpRecord
	restoreOp   mee.OpRecord

	// Cycle memo (fingerprint keyed), populated lazily, plus reusable
	// scratch for the fingerprint serialization and scaled replay deltas.
	records     ffRecords
	rec         *cycleRecording // in-progress recording, nil outside one
	fpBuf       []byte
	nomScratch  []power.Energy
	battScratch []power.Energy

	// Memo plane plumbing (memoplane.go): the plane this platform
	// publishes into and the shared bundle of its memo class, both nil
	// until a plane attaches it; an attached platform records up to
	// ffPersistRecordCap.
	plane   *MemoPlane
	persist *ffBundle

	stats FFStats
}

// ffFaultsClean reports that no injection remains unfired and no forced
// verification failure is pending: the fault plane can no longer influence
// this run's remaining cycles. Conservative on purpose — an unfired
// injection for a later cycle also disables the memo now, because a replay
// would leave DRAM/cache state stale for that later cycle's real work
// until realized, and recording next to an armed plane is not worth the
// asymmetry. Once every injection has fired, recording resumes.
func (p *Platform) ffFaultsClean() bool {
	fp := p.fplane
	if fp == nil {
		return true
	}
	if fp.meeForce {
		return false
	}
	for _, fired := range fp.fired {
		if !fired {
			return false
		}
	}
	return true
}

// ffLatchCycle latches, at a cycle boundary, whether the upcoming cycle
// may use the memo. The queue must be empty: a pending event (a device
// model's ticker, an externally scheduled mutation) could observe or
// modify state mid-cycle, so such cycles always run in full.
func (p *Platform) ffLatchCycle() {
	p.ff.cycleOK = p.ff.mode != FFOff && p.sched.Pending() == 0 && p.ffFaultsClean()
}

// ffRealize rebuilds canonical MEE state before a real engine operation:
// materialize the DRAM bytes the replayed saves would have produced and,
// when the engine should be in the post-restore state, re-warm the
// metadata cache by re-executing the skipped sequential read.
func (p *Platform) ffRealize() error {
	ff := &p.ff
	if !ff.meeVirtual || p.eng == nil {
		return nil
	}
	if err := p.eng.ReplayMaterialize(p.ctxImage); err != nil {
		return err
	}
	if ff.meePrimed {
		if err := p.eng.ReplayWarm(p.restoreBuf, len(p.ctxImage)); err != nil {
			return err
		}
	}
	ff.meeVirtual = false
	ff.stats.Materializations++
	return nil
}

// ffSaveCtxDRAM runs — or replays — the MEE context save, returning its
// latency. Only canonical saves (from the primed post-restore state, in a
// memo-eligible cycle) are recorded or compared.
func (p *Platform) ffSaveCtxDRAM() (sim.Duration, error) {
	ff := &p.ff
	if ff.mode == FFOn && ff.cycleOK && ff.meePrimed && ff.haveSave {
		p.eng.ReplayOp(ff.saveOp)
		ff.meePrimed = false
		ff.meeVirtual = true
		ff.stats.MEEOpsReplayed++
		return ff.saveLat, nil
	}
	if err := p.ffRealize(); err != nil {
		return 0, err
	}
	canonical := ff.cycleOK && ff.meePrimed && ff.mode != FFOff
	ff.meePrimed = false
	var snap mee.OpCapture
	if canonical {
		snap = p.eng.CaptureOp()
	}
	tgt := &pmu.DRAMTarget{Engine: p.eng}
	lat, err := tgt.Save(p.ctxImage)
	if err != nil {
		return 0, err
	}
	if canonical {
		op := p.eng.DeltaSince(snap)
		if !ff.haveSave {
			ff.saveOp, ff.saveLat, ff.haveSave = op, lat, true
		} else if ff.mode == FFVerify && (op != ff.saveOp || lat != ff.saveLat) {
			return 0, fmt.Errorf("fastforward verify: save diverged from memo (lat %v vs %v, op %+v vs %+v)",
				lat, ff.saveLat, op, ff.saveOp)
		}
	}
	return lat, nil
}
