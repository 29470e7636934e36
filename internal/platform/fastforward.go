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
//     counters, latency, root-counter advance) depend only on the engine
//     state it starts from. Once a platform of the memo class has run an
//     op from a given start state, every later one — on any platform of
//     the class — advances the counters arithmetically and skips the
//     crypto and DRAM traffic (mee.OpRecord/ReplayOp), with
//     ReplayMaterialize/ReplayWarm rebuilding the canonical bytes before
//     any real engine op.
//
//   - Cycle replay: when the full behavioral fingerprint of the platform
//     at a cycle boundary recurs together with the same workload.Cycle
//     parameters, the whole cycle is replayed as exact fixed-point deltas
//     (energy, residency, latencies, counters, flow-trace steps) over a
//     bulk scheduler time advance.
//
// Both layers are gated per cycle on a clean fault plane (nothing left to
// inject). Cycle replay also needs an empty event queue at the boundary,
// so no external event can observe or mutate skipped state mid-cycle. Op
// replay only skips work on the engine and the DRAM module, and nothing
// outside the platform reaches that module except through Mem(); so it
// needs an empty queue only once Mem() has handed the module out. Mem()
// drops the current cycle's op replay and materializes any bytes a replay
// left virtual before returning. Every replayed quantity is
// integer/fixed-point exact, so results are byte-identical to full
// simulation.

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
	// record or replay MEE ops. memExposed marks that Mem() has handed the
	// DRAM module out, after which op replay needs an empty queue too.
	cycleOK    bool
	memExposed bool

	// MEE op replay state. meePrimed marks the live engine as being in
	// the canonical post-import+restore state (ffStartPrimed);
	// meeVirtual marks DRAM bytes and the metadata cache as stale because
	// ops were replayed over them. downEng is the engine that powered down
	// at idle entry, kept so that bytes left virtual can be materialized
	// while p.eng is nil.
	downEng    *mee.Engine
	meePrimed  bool
	meeVirtual bool

	// The record set this platform reads and publishes to, op records and
	// cycle records alike — a private bundle from New until a memo plane's
	// Attach swaps in its class's shared one (memoplane.go) — plus
	// reusable scratch for the fingerprint serialization and scaled replay
	// deltas.
	bundle      *ffBundle
	rec         *cycleRecording // in-progress recording, nil outside one
	fpBuf       []byte
	nomScratch  []power.Energy
	battScratch []power.Energy

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
// may record or replay MEE ops. A pending event (a device model's next
// arrival, an externally scheduled callback) can only reach the bytes a
// replay leaves virtual through Mem(), so the queue must be empty only
// once the module has been handed out; Mem() itself drops the latch for
// the rest of the cycle it is called in.
func (p *Platform) ffLatchCycle() {
	ff := &p.ff
	ff.cycleOK = ff.mode != FFOff && p.ffFaultsClean() && (!ff.memExposed || p.sched.Pending() == 0)
}

// ffRealize rebuilds canonical MEE state before a real engine operation or
// a read of the DRAM module: materialize the DRAM bytes the replayed saves
// would have produced and, when the engine should be in the post-restore
// state, re-warm the metadata cache by re-executing the skipped sequential
// read. While the platform is idle the live engine is powered down, so the
// bytes are materialized through the engine that powered down.
func (p *Platform) ffRealize() error {
	ff := &p.ff
	eng := p.eng
	if eng == nil {
		eng = ff.downEng
	}
	if !ff.meeVirtual || eng == nil {
		return nil
	}
	if err := eng.ReplayMaterialize(p.ctxImage); err != nil {
		return err
	}
	if ff.meePrimed {
		if err := eng.ReplayWarm(p.restoreBuf, len(p.ctxImage)); err != nil {
			return err
		}
	}
	ff.meeVirtual = false
	ff.stats.Materializations++
	return nil
}

// ffOpStart names the MEE engine state a context save or restore starts
// from. A region op's traffic, and so its latency, is a function of the
// metadata cache's tags and valid/dirty bits, the tree geometry and the
// region size only — never of the root counter, the key or any byte — so
// every op that starts from one of these states repeats the same OpRecord
// on every platform of a memo class (DESIGN.md §12).
type ffOpStart uint8

const (
	ffNoStart        ffOpStart = iota // none of the below: runs for real, unrecorded
	ffStartFormatted                  // mee.New's state: root 0, empty cache (a platform's first save)
	ffStartImported                   // a fresh ImportState: cold cache (every attempt-1 restore)
	ffStartPrimed                     // the cache a completed restore leaves (every later save)
)

// ffOpKey identifies an MEE op record within a memo class: the op, the
// engine state it starts from, and the region geometry.
type ffOpKey struct {
	save       bool
	start      ffOpStart
	dataBlocks int
	base       uint64
	cacheLines int
	imageLen   int
}

// ffOpRecord is one recorded MEE context save or restore: its counter
// deltas and latency, and the CacheDigest of the engine it started from,
// which -fastforward verify compares against every live engine the key
// claims is in the same state.
type ffOpRecord struct {
	op     mee.OpRecord
	lat    sim.Duration
	digest uint64
}

// ffOps indexes a memo class's op records.
type ffOps map[ffOpKey]ffOpRecord

// ffOpKeyFor keys a save or restore on the live engine from start.
func (p *Platform) ffOpKeyFor(save bool, start ffOpStart) ffOpKey {
	l := p.eng.Layout()
	return ffOpKey{
		save:       save,
		start:      start,
		dataBlocks: l.DataBlocks,
		base:       l.Base,
		cacheLines: mee.DefaultCacheLines,
		imageLen:   len(p.ctxImage),
	}
}

// ffOpReplayable reports whether the op of key may replay now: op
// replay is on for this cycle and the op starts from a recorded state.
func (p *Platform) ffOpReplayable(key ffOpKey) bool {
	return p.ff.mode == FFOn && p.ff.cycleOK && key.start != ffNoStart
}

// ffReplayOp replays key's class record over the live engine when op
// replay may run this cycle and the class holds one, returning its
// latency; the caller sets meePrimed for the state the op leaves. When
// the class holds none, the caller has claimed key (ffBundle.opOrClaim)
// and must run the op for real, then ffPublishOp its record or, failing,
// releaseOp it.
func (p *Platform) ffReplayOp(key ffOpKey) (sim.Duration, bool) {
	ff := &p.ff
	if !p.ffOpReplayable(key) {
		return 0, false
	}
	r, ok := ff.bundle.opOrClaim(key)
	if !ok {
		return 0, false
	}
	p.eng.ReplayOp(r.op)
	ff.meeVirtual = true
	ff.stats.MEEOpsReplayed++
	return r.lat, true
}

// ffPublishOp files a real op's record with the memo class; under
// -fastforward verify, an op whose class already holds a record — from
// this platform, another one, or the store — must match it exactly,
// start-state digest included.
func (p *Platform) ffPublishOp(key ffOpKey, r ffOpRecord) error {
	held, fresh := p.ff.bundle.publishOp(key, r)
	if fresh || p.ff.mode != FFVerify || held == r {
		return nil
	}
	what := "restore"
	if key.save {
		what = "save"
	}
	return fmt.Errorf("fastforward verify: %s diverged from memo (lat %v vs %v, op %+v vs %+v, start digest %#x vs %#x)",
		what, r.lat, held.lat, r.op, held.op, r.digest, held.digest)
}

// ffSaveCtxDRAM runs — or replays — the MEE context save, returning its
// latency. Saves from the formatted or the primed state, in a
// memo-eligible cycle, are recorded, replayed or compared.
func (p *Platform) ffSaveCtxDRAM() (sim.Duration, error) {
	ff := &p.ff
	start := ffNoStart
	switch {
	case !ff.cycleOK || ff.mode == FFOff:
	case ff.meePrimed:
		start = ffStartPrimed
	case p.eng.RootCounter() == 0:
		// Only a save advances the root, so nothing has touched the
		// engine since mee.New formatted it.
		start = ffStartFormatted
	}
	key := p.ffOpKeyFor(true, start)
	if lat, ok := p.ffReplayOp(key); ok {
		ff.meePrimed = false
		return lat, nil
	}
	if p.ffOpReplayable(key) {
		defer ff.bundle.releaseOp(key) // ffReplayOp claimed key
	}
	if err := p.ffRealize(); err != nil {
		return 0, err
	}
	ff.meePrimed = false
	var snap mee.OpCapture
	var digest uint64
	if start != ffNoStart {
		snap, digest = p.eng.CaptureOp(), p.eng.CacheDigest()
	}
	tgt := &pmu.DRAMTarget{Engine: p.eng}
	lat, err := tgt.Save(p.ctxImage)
	if err != nil {
		return 0, err
	}
	if start != ffNoStart {
		if err := p.ffPublishOp(key, ffOpRecord{op: p.eng.DeltaSince(snap), lat: lat, digest: digest}); err != nil {
			return 0, err
		}
	}
	return lat, nil
}
