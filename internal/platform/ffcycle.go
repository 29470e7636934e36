package platform

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"reflect"

	"odrips/internal/chipset"
	"odrips/internal/clock"
	"odrips/internal/ltr"
	"odrips/internal/power"
	"odrips/internal/sim"
	"odrips/internal/workload"
)

// This file is the cycle-replay layer of the fast-forward engine
// (DESIGN.md §12): when the platform's behavioral fingerprint at a cycle
// boundary recurs together with the same workload.Cycle parameters, the
// whole cycle is known to repeat exactly, so it is applied as recorded
// exact deltas over one bulk scheduler advance instead of being simulated.
//
// The fingerprint hashes every piece of mutable state that can influence a
// cycle's behavior, expressed relative to the current instant so that it
// can recur: LTR deadlines relative to now instead of absolute,
// per-component power draws instead of energy accumulators. State that
// only accumulates outputs (energies, residencies, counters, the
// main-timer value) is excluded and advanced by recorded deltas instead;
// the exclusion list is enforced field-by-field by the fast-forward
// manifest test.
//
// The crystals' exact phases are not hashed: they walk by a fraction of a
// picosecond every cycle and would never recur. Instead each record
// carries, per crystal, the phase window its body holds over
// (clock.Window): the recording collects the remainder of every division
// that read the grid, and any boundary phase inside the window gives the
// same integer answers, hence the same body. Replay picks the record of
// the key whose windows hold the live phases.
//
// The scheme is fail-safe by construction: the fingerprint and the phases
// are recomputed from live state at every boundary, so a surgery bug or a
// too-narrow window produces a memo miss and a full simulation, never
// silent corruption.

// ffRecordCap bounds the number of cycle records an unattached platform
// records itself, so runs whose boundaries never recur stay O(1) in
// memory. A steady-state run needs a handful.
const ffRecordCap = 64

// ffNumStates is the number of architectural power states; the replay
// deltas use fixed arrays indexed by power.State.
const ffNumStates = 4

// ffKey identifies a steady-state cycle class: the boundary fingerprint
// plus the workload parameters of the cycle about to run.
type ffKey struct {
	fp     [32]byte
	active sim.Duration
	idle   sim.Duration
	wake   workload.WakeKind
}

// ctrPatch replays a FastCounter: the counter's base advances by a fixed
// delta per cycle (the hand-over protocol re-derives it from the same
// phase-locked counts each time) and its anchor lands at a fixed offset
// from the cycle start.
type ctrPatch struct {
	changed   bool
	baseD     uint64 // base advance per cycle (wrapping)
	anchorOff sim.Duration
	running   bool
}

// oscPatch replays an oscillator that was power-cycled during the cycle:
// its edge-grid anchor lands at a fixed offset from the cycle start
// (clock.Oscillator.EpochOffset, read once the grid has moved).
type oscPatch struct {
	changed   bool
	stableOff sim.Duration
}

// ltrPatch replays one named TNTE deadline, relative to the cycle end
// (consumed deadlines legitimately sit in the past).
type ltrPatch struct {
	owner string
	rel   sim.Duration
}

// cycleRecord is everything one cycle does to the platform, as exact
// deltas against the boundary state it started from.
type cycleRecord struct {
	dur        sim.Duration
	endFP      [32]byte
	replayable bool

	// win holds the boundary phases of xtal24 and xtal32 (in that order)
	// over which this body holds.
	win [2]clock.Window

	// Exact energy/residency movement.
	nomD, battD []power.Energy // per meter component, registration order
	resD        [ffNumStates]sim.Duration
	enD         [ffNumStates]power.Energy
	idleByCmpD  []power.Energy
	transD      uint64

	// Flow statistics.
	entriesD, exitsD        uint64
	entryTotalD, exitTotalD sim.Duration
	ctxSaveLat, ctxRestore  sim.Duration // end values, kept only when the cycle saved/restored
	ctxVerifiedD            uint64

	// Wake accounting. endWakeFired is the hub latch at the end boundary:
	// a completed deep-idle cycle leaves it set until the next idle entry
	// re-arms it, while a shallow or leading boundary leaves it clear, so
	// replay must restore it for the next boundary fingerprint to match.
	wakeD        [3]uint64 // platform counts, indexed by chipset.WakeSource
	hubWakeD     [3]uint64
	shallowD     map[string]uint64
	endWakeFired bool

	// Timekeeping surgery.
	mainTimerP ctrPatch
	unitFastP  ctrPatch
	x24P       oscPatch
	ltrTimers  []ltrPatch

	// MEE root-counter advance (CtxSGXDRAM cycles).
	engPresent bool
	rootD      uint64
	endPrimed  bool

	// Flow-trace steps, At stored as the offset from the cycle start.
	steps []FlowStep
}

// ctrSnap is a FastCounter latch snapshot.
type ctrSnap struct {
	base    uint64
	anchor  sim.Time
	running bool
}

// cycleRecording is an in-flight recording, finalized at the next
// boundary.
type cycleRecording struct {
	key    ffKey
	ph     [2]clock.Phase // boundary phases of xtal24, xtal32
	start  sim.Time
	expect *cycleRecord // verify mode: compare instead of store

	nom0, batt0 []power.Energy
	res0        [ffNumStates]sim.Duration
	en0         [ffNumStates]power.Energy
	idle0       []power.Energy
	trans0      uint64
	fs0         flowStats
	wake0       [3]uint64
	hubWake0    [3]uint64
	shallow0    map[string]uint64
	mt0, uf0    ctrSnap
	x24Epoch0   uint64
	x32Epoch0   uint64
	ltrReports0 []ltr.Report
	root0       uint64
	eng0        bool

	steps []FlowStep // absolute At; rebased at finalize
}

// ffCycleEligible reports whether the platform, at a RunCycles boundary,
// is in a state where a cycle may be recorded or replayed: quiescent,
// healthy, with no flow plumbing in flight and no trace hook observing
// the timer protocol (a Trace callback sees per-edge events that a replay
// would skip).
func (p *Platform) ffCycleEligible() bool {
	if p.ff.mode == FFOff || p.sched.Pending() != 0 || !p.ffFaultsClean() {
		return false
	}
	if p.state != power.Active || p.inFlow || p.err != nil {
		return false
	}
	if p.pendingWake != nil || p.p2cContinue != nil || p.c2pContinue != nil ||
		p.abortWake != nil || p.wantAbort {
		return false
	}
	if u := p.hub.Unit(); u != nil && u.Trace != nil {
		return false
	}
	return true
}

// ---- Fingerprint ----

func ffPutU64(b []byte, v uint64) []byte {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	return append(b, w[:]...)
}

func ffPutI64(b []byte, v int64) []byte { return ffPutU64(b, uint64(v)) }

func ffPutBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func ffPutStr(b []byte, s string) []byte {
	b = ffPutU64(b, uint64(len(s)))
	return append(b, s...)
}

// ffBoundary fingerprints the behavior-relevant mutable platform state
// at a cycle boundary and returns the crystals' phases, which the
// fingerprint leaves to the records' windows. Everything hashed must be
// either recurrence-capable (expressed relative to now) or repeating
// absolute state (levels, modes, draws); monotonic accumulators are
// excluded and handled by delta replay. The serialization order is fixed;
// changing it only changes memo keys within a run, never correctness.
func (p *Platform) ffBoundary() ([32]byte, [2]clock.Phase) {
	now := p.sched.Now()
	ph := [2]clock.Phase{p.xtal24.PhaseAt(now), p.xtal32.PhaseAt(now)}
	b := p.ff.fpBuf[:0]

	// Power: per-component quantized draws (registration order) and the
	// delivery efficiency in force.
	comps := p.meter.Ordered()
	b = ffPutU64(b, uint64(len(comps)))
	for _, c := range comps {
		nom, batt := c.DrawsNW()
		b = ffPutI64(b, nom)
		b = ffPutI64(b, batt)
	}
	b = ffPutU64(b, math.Float64bits(p.meter.Efficiency()))

	// Platform flags.
	b = ffPutBool(b, p.degraded)
	b = ffPutBool(b, p.hub.Hosting())
	b = ffPutBool(b, p.hub.WakeFired())
	b = ffPutI64(b, int64(p.state))
	b = ffPutBool(b, p.eng != nil)

	// Oscillators: power, tuning, and whether the grid is still
	// stabilizing. The phase itself is matched against record windows.
	b = ffPutBool(b, p.xtal24.On())
	b = ffPutI64(b, p.xtal24.PPB())
	b = ffPutBool(b, ph[0].Age < 0)
	b = ffPutBool(b, p.xtal32.On())
	b = ffPutI64(b, p.xtal32.PPB())
	b = ffPutBool(b, ph[1].Age < 0)

	// Clock domains and rails.
	b = ffPutBool(b, p.procDom.Gated())
	b = ffPutBool(b, p.hub.Dom24().Gated())
	b = ffPutBool(b, p.ring.Gated())

	// Memory and retention stores.
	b = ffPutI64(b, int64(p.mem.State()))
	b = ffPutBool(b, p.mem.CKE())
	b = ffPutI64(b, int64(p.saSRAM.State()))
	b = ffPutI64(b, int64(p.computeSRAM.State()))
	b = ffPutI64(b, int64(p.bootSRAM.State()))

	// Timekeeping mode (counter values are excluded; the counter patches
	// replay them as deltas).
	b = ffPutBool(b, p.mainTimer.Running())
	u := p.hub.Unit()
	b = ffPutBool(b, u != nil)
	if u != nil {
		b = ffPutI64(b, int64(u.Mode()))
		b = ffPutBool(b, u.SwitchAsserted())
		b = ffPutBool(b, u.Fast.Running())
	}
	cal := p.hub.Calibration()
	b = ffPutBool(b, cal != nil)
	if cal != nil {
		b = ffPutU64(b, cal.Step.Raw)
		b = ffPutU64(b, uint64(cal.Step.FracBits))
	}

	// LTR reports and TNTE deadlines (relative to now; consumed deadlines
	// are negative and still meaningful — NextTimerEvent clamps them).
	reports := p.ltrTable.Reports()
	b = ffPutU64(b, uint64(len(reports)))
	for _, r := range reports {
		b = ffPutStr(b, r.Device)
		b = ffPutI64(b, int64(r.Tolerance))
	}
	timers := p.ltrTable.Timers()
	b = ffPutU64(b, uint64(len(timers)))
	for _, t := range timers {
		b = ffPutStr(b, t.Owner)
		b = ffPutI64(b, int64(t.Deadline.Sub(now)))
	}

	// GPIO pins (sorted by name).
	pins := p.hub.GPIOPins()
	b = ffPutU64(b, uint64(len(pins)))
	for _, pin := range pins {
		mode, level, pending, havePending, watched, samplePending, sampler := pin.FastForwardState()
		b = ffPutStr(b, pin.Name())
		b = ffPutI64(b, int64(mode))
		b = ffPutBool(b, level)
		b = ffPutBool(b, pending)
		b = ffPutBool(b, havePending)
		b = ffPutBool(b, watched)
		b = ffPutBool(b, samplePending)
		b = ffPutStr(b, sampler)
	}

	// On-chip eMRAM context (fault injection can corrupt it in place).
	// The content digest is memoized behind a dirty flag: the save flow
	// rewrites the same ctxImage bytes every cycle (and installs its
	// precomputed hash), so the per-boundary cost is O(1) instead of a
	// full SHA-256 of the image.
	b = ffPutU64(b, uint64(len(p.emram)))
	if len(p.emram) > 0 {
		if !p.emramHashOK {
			p.emramHash = sha256.Sum256(p.emram)
			p.emramHashOK = true
		}
		b = append(b, p.emramHash[:]...)
	}

	p.ff.fpBuf = b
	return sha256.Sum256(b), ph
}

// holds reports whether both crystals' boundary phases lie in the
// record's windows.
func (cr *cycleRecord) holds(ph [2]clock.Phase) bool {
	return cr.win[0].Holds(ph[0]) && cr.win[1].Holds(ph[1])
}

// ---- Recording ----

// ffTrackerSnap captures the tracker's per-state residency and energy
// including the open interval, so shallow cycles — which never
// transition — still record exact deltas.
func (p *Platform) ffTrackerSnap(res *[ffNumStates]sim.Duration, en *[ffNumStates]power.Energy) {
	t := p.tracker
	now := p.sched.Now()
	for _, st := range power.States() {
		res[int(st)] = t.residency[st]
		en[int(st)] = t.energy[st]
	}
	res[int(t.cur)] += now.Sub(t.since)
	var lastSum power.Energy
	for _, e := range t.last {
		lastSum = lastSum.Add(e)
	}
	en[int(t.cur)] = en[int(t.cur)].Add(p.meter.TotalBattery().Sub(lastSum))
}

func (p *Platform) ffWakeSnap(plat, hub *[3]uint64) {
	hubCounts := p.hub.WakeCounts()
	for i := 0; i < 3; i++ {
		plat[i] = p.wakeCount[chipset.WakeSource(i)]
		hub[i] = hubCounts[chipset.WakeSource(i)]
	}
}

// ffBeginRecording starts memoizing the cycle about to run from boundary
// phases ph. In verify mode an existing record becomes the expectation to
// compare against.
func (p *Platform) ffBeginRecording(key ffKey, ph [2]clock.Phase) {
	ff := &p.ff
	existing := ff.records.lookup(key, ph)
	if existing != nil && ff.mode != FFVerify {
		return // recorded but not replayable; nothing to gain
	}
	capN := uint64(ffRecordCap)
	if ff.persist != nil {
		capN = ffPersistRecordCap
	}
	if existing == nil && ff.stats.CyclesRecorded >= capN {
		return
	}
	comps := p.meter.Ordered()
	rec := &cycleRecording{
		key:      key,
		ph:       ph,
		start:    p.sched.Now(),
		expect:   existing,
		nom0:     make([]power.Energy, len(comps)),
		batt0:    make([]power.Energy, len(comps)),
		idle0:    make([]power.Energy, len(comps)),
		shallow0: make(map[string]uint64, len(p.shallowCounts)),
	}
	for i, c := range comps {
		rec.nom0[i], rec.batt0[i] = p.meter.EnergyOf(c)
	}
	copy(rec.idle0, p.tracker.idleByCmp)
	p.ffTrackerSnap(&rec.res0, &rec.en0)
	rec.trans0 = p.tracker.transitions
	rec.fs0 = p.flowStats
	p.ffWakeSnap(&rec.wake0, &rec.hubWake0)
	for k, v := range p.shallowCounts {
		rec.shallow0[k] = v
	}
	rec.mt0.base, rec.mt0.anchor, rec.mt0.running = p.mainTimer.ReplaySnapshot()
	if u := p.hub.Unit(); u != nil {
		rec.uf0.base, rec.uf0.anchor, rec.uf0.running = u.Fast.ReplaySnapshot()
	}
	rec.x24Epoch0 = p.xtal24.Epoch()
	rec.x32Epoch0 = p.xtal32.Epoch()
	p.xtal24.BeginWindow()
	p.xtal32.BeginWindow()
	rec.ltrReports0 = p.ltrTable.Reports()
	if p.eng != nil {
		rec.eng0 = true
		rec.root0 = p.eng.RootCounter()
	}
	ff.rec = rec
}

// ffRecordFlowStep mirrors a flow-trace step into the in-flight
// recording; recordStep calls it on every step.
func (p *Platform) ffRecordFlowStep(fs FlowStep) {
	if rec := p.ff.rec; rec != nil {
		rec.steps = append(rec.steps, fs)
	}
}

// ffFinalizeRecording closes the in-flight recording at a boundary. ok
// says the boundary is memo-eligible and fp is its fingerprint; an
// ineligible end (fault fired mid-cycle, queue not empty, error) discards
// the recording.
func (p *Platform) ffFinalizeRecording(ok bool, fp [32]byte) {
	ff := &p.ff
	rec := ff.rec
	if rec == nil {
		return
	}
	ff.rec = nil
	win := [2]clock.Window{p.xtal24.EndWindow(), p.xtal32.EndWindow()}
	if !ok {
		return
	}
	now := p.sched.Now()
	comps := p.meter.Ordered()
	if len(comps) != len(rec.nom0) {
		return // component set changed mid-run; refuse
	}
	cr := &cycleRecord{
		dur:        now.Sub(rec.start),
		endFP:      fp,
		replayable: true,
		win:        win,
		nomD:       make([]power.Energy, len(comps)),
		battD:      make([]power.Energy, len(comps)),
		idleByCmpD: make([]power.Energy, len(comps)),
	}
	for i, c := range comps {
		nom, batt := p.meter.EnergyOf(c)
		cr.nomD[i] = nom.Sub(rec.nom0[i])
		cr.battD[i] = batt.Sub(rec.batt0[i])
		cr.idleByCmpD[i] = p.tracker.idleByCmp[i].Sub(rec.idle0[i])
	}
	var res1 [ffNumStates]sim.Duration
	var en1 [ffNumStates]power.Energy
	p.ffTrackerSnap(&res1, &en1)
	for i := 0; i < ffNumStates; i++ {
		cr.resD[i] = res1[i] - rec.res0[i]
		cr.enD[i] = en1[i].Sub(rec.en0[i])
	}
	cr.transD = p.tracker.transitions - rec.trans0

	fs := p.flowStats
	cr.entriesD = fs.entries - rec.fs0.entries
	cr.exitsD = fs.exits - rec.fs0.exits
	cr.entryTotalD = fs.entryTotal - rec.fs0.entryTotal
	cr.exitTotalD = fs.exitTotal - rec.fs0.exitTotal
	// The latency fields hold the last save/restore of the run. A cycle
	// without one leaves them as history set them, which replay does not
	// apply and which must not tell two equal bodies apart under verify.
	if cr.entriesD > 0 {
		cr.ctxSaveLat = fs.ctxSaveLat
	}
	if cr.exitsD > 0 {
		cr.ctxRestore = fs.ctxRestore
	}
	cr.ctxVerifiedD = fs.ctxVerified - rec.fs0.ctxVerified

	var wake1, hubWake1 [3]uint64
	p.ffWakeSnap(&wake1, &hubWake1)
	for i := 0; i < 3; i++ {
		cr.wakeD[i] = wake1[i] - rec.wake0[i]
		cr.hubWakeD[i] = hubWake1[i] - rec.hubWake0[i]
	}
	cr.shallowD = make(map[string]uint64)
	for k, v := range p.shallowCounts {
		if d := v - rec.shallow0[k]; d > 0 {
			cr.shallowD[k] = d
		}
	}
	cr.endWakeFired = p.hub.WakeFired()

	base, anchor, running := p.mainTimer.ReplaySnapshot()
	if base != rec.mt0.base || anchor != rec.mt0.anchor || running != rec.mt0.running {
		cr.mainTimerP = ctrPatch{
			changed:   true,
			baseD:     base - rec.mt0.base,
			anchorOff: anchor.Sub(rec.start),
			running:   running,
		}
	}
	if u := p.hub.Unit(); u != nil {
		base, anchor, running = u.Fast.ReplaySnapshot()
		if base != rec.uf0.base || anchor != rec.uf0.anchor || running != rec.uf0.running {
			cr.unitFastP = ctrPatch{
				changed:   true,
				baseD:     base - rec.uf0.base,
				anchorOff: anchor.Sub(rec.start),
				running:   running,
			}
		}
	}
	if p.xtal24.Epoch() != rec.x24Epoch0 {
		cr.x24P = oscPatch{changed: true, stableOff: p.xtal24.EpochOffset(rec.start)}
	}
	if p.xtal32.Epoch() != rec.x32Epoch0 {
		// The slow crystal is never power-cycled by the flows; a moved
		// anchor means a retune (drift recalibration) happened, which is
		// not a steady state.
		cr.replayable = false
	}
	if !reflect.DeepEqual(p.ltrTable.Reports(), rec.ltrReports0) {
		cr.replayable = false // a device adjusted its tolerance mid-cycle
	}
	for _, t := range p.ltrTable.Timers() {
		cr.ltrTimers = append(cr.ltrTimers, ltrPatch{owner: t.Owner, rel: t.Deadline.Sub(now)})
	}

	engPresent := p.eng != nil
	if engPresent != rec.eng0 {
		cr.replayable = false // engine appeared/vanished (degradation edge)
	} else if engPresent {
		cr.engPresent = true
		cr.rootD = p.eng.RootCounter() - rec.root0
		if cr.rootD > 0 { // replay applies the primed state with the advance only
			cr.endPrimed = ff.meePrimed
		}
	}

	cr.steps = make([]FlowStep, len(rec.steps))
	for i, s := range rec.steps {
		s.At = sim.Time(s.At.Sub(rec.start)) // store as offset from cycle start
		cr.steps[i] = s
	}

	if rec.expect != nil {
		if !ffSameBody(cr, rec.expect) {
			p.fail("platform: fastforward verify: cycle record diverged from memo (key %x…, dur %v vs %v)",
				rec.key.fp[:4], cr.dur, rec.expect.dur)
		} else if !cr.holds(rec.ph) || !rec.expect.holds(rec.ph) {
			p.fail("platform: fastforward verify: boundary phase outside a record window (key %x…)", rec.key.fp[:4])
		}
		return
	}
	if ff.records == nil {
		ff.records = make(ffRecords)
	}
	ff.records.add(rec.key, cr)
	ff.stats.CyclesRecorded++
	ff.ffPersistAdd(rec.key, cr)
}

// ffSameBody compares two records field by field, windows aside (verify
// checks those separately: both must hold the live phases).
func ffSameBody(a, b *cycleRecord) bool {
	x, y := *a, *b
	x.win, y.win = [2]clock.Window{}, [2]clock.Window{}
	return reflect.DeepEqual(x, y)
}

// ---- Replay ----

// ffTryReplay replays as many upcoming cycles as the memo covers,
// starting at cycles[idx] whose boundary fingerprint is fp and whose
// crystal phases are ph. It returns the number of cycles consumed (0 = no
// hit; simulate normally).
func (p *Platform) ffTryReplay(fp [32]byte, ph [2]clock.Phase, cycles []workload.Cycle, idx int) int {
	ff := &p.ff
	if ff.mode != FFOn {
		return 0
	}
	c := cycles[idx]
	rec := ff.records.lookup(ffKey{fp: fp, active: c.Active, idle: c.Idle, wake: c.Wake}, ph)
	if rec == nil || !rec.replayable {
		return 0
	}
	n := 1
	if rec.endFP == fp {
		// Self-loop: the cycle reproduces its own starting fingerprint, so
		// every consecutive identical cycle whose boundary phases stay in
		// the windows replays in the same batch. A crystal the cycle
		// re-anchors starts every later cycle at one phase; one it leaves
		// running advances by the same residue each cycle.
		walk24, walk32 := p.xtal24.Walk(rec.dur), p.xtal32.Walk(rec.dur)
		var anchored24 clock.Phase
		if rec.x24P.changed {
			anchored24 = p.xtal24.PhaseAtAge(rec.dur - rec.x24P.stableOff)
		}
		for idx+n < len(cycles) && cycles[idx+n] == c {
			if rec.x24P.changed {
				ph[0] = anchored24
			} else {
				ph[0] = walk24.Next(ph[0])
			}
			ph[1] = walk32.Next(ph[1])
			if !rec.holds(ph) {
				break
			}
			n++
		}
	}
	p.ffReplay(rec, int64(n))
	return n
}

// ffReplay applies a recorded cycle n times as one batch of exact deltas.
func (p *Platform) ffReplay(rec *cycleRecord, n int64) {
	ff := &p.ff
	t0 := p.sched.Now()
	t1 := t0.Add(rec.dur * sim.Duration(n))
	lastStart := t1.Add(-rec.dur)

	// Close the tracker's open interval with real numbers at t0, then
	// advance the clock and apply the recorded movement n times.
	p.meter.SettleAll()
	p.tracker.to(p.tracker.cur)
	p.sched.AdvanceTo(t1)

	comps := p.meter.Ordered()
	if cap(ff.nomScratch) < len(comps) {
		ff.nomScratch = make([]power.Energy, len(comps))
		ff.battScratch = make([]power.Energy, len(comps))
	}
	nom := ff.nomScratch[:len(comps)]
	batt := ff.battScratch[:len(comps)]
	for i := range comps {
		nom[i] = rec.nomD[i].MulN(n)
		batt[i] = rec.battD[i].MulN(n)
	}
	p.meter.ReplayAdvance(nom, batt)

	tr := p.tracker
	for _, st := range power.States() {
		tr.residency[st] += rec.resD[int(st)] * sim.Duration(n)
		tr.energy[st] = tr.energy[st].Add(rec.enD[int(st)].MulN(n))
	}
	for i := range tr.idleByCmp {
		tr.idleByCmp[i] = tr.idleByCmp[i].Add(rec.idleByCmpD[i].MulN(n))
	}
	tr.transitions += rec.transD * uint64(n)
	tr.since = t1
	tr.capture(tr.last)

	fs := &p.flowStats
	fs.entries += rec.entriesD * uint64(n)
	fs.exits += rec.exitsD * uint64(n)
	fs.entryTotal += rec.entryTotalD * sim.Duration(n)
	fs.exitTotal += rec.exitTotalD * sim.Duration(n)
	if rec.entriesD > 0 {
		per := rec.entryTotalD / sim.Duration(rec.entriesD)
		if per > fs.entryMax {
			fs.entryMax = per
		}
		fs.ctxSaveLat = rec.ctxSaveLat
	}
	if rec.exitsD > 0 {
		per := rec.exitTotalD / sim.Duration(rec.exitsD)
		if per > fs.exitMax {
			fs.exitMax = per
		}
		fs.ctxRestore = rec.ctxRestore
	}
	fs.ctxVerified += rec.ctxVerifiedD * uint64(n)

	for i := 0; i < 3; i++ {
		src := chipset.WakeSource(i)
		if rec.wakeD[i] > 0 {
			p.wakeCount[src] += rec.wakeD[i] * uint64(n)
		}
		if rec.hubWakeD[i] > 0 {
			p.hub.ReplayAddWakes(src, rec.hubWakeD[i]*uint64(n))
		}
	}
	for name, d := range rec.shallowD {
		p.shallowCounts[name] += d * uint64(n)
	}
	p.hub.ReplayRestoreWakeLatch(rec.endWakeFired)

	if rec.mainTimerP.changed {
		base, _, _ := p.mainTimer.ReplaySnapshot()
		p.mainTimer.ReplayRestore(
			base+rec.mainTimerP.baseD*uint64(n),
			lastStart.Add(rec.mainTimerP.anchorOff),
			rec.mainTimerP.running,
		)
	}
	if rec.unitFastP.changed {
		uf := p.hub.Unit().Fast
		base, _, _ := uf.ReplaySnapshot()
		uf.ReplayRestore(
			base+rec.unitFastP.baseD*uint64(n),
			lastStart.Add(rec.unitFastP.anchorOff),
			rec.unitFastP.running,
		)
	}
	if rec.x24P.changed {
		p.xtal24.ReplayRebase(lastStart.Add(rec.x24P.stableOff))
	}

	for _, t := range p.ltrTable.Timers() {
		p.ltrTable.ClearTimer(t.Owner)
	}
	for _, t := range rec.ltrTimers {
		p.ltrTable.ReplaySetTimer(t.owner, t1.Add(t.rel))
	}

	if rec.engPresent && rec.rootD > 0 {
		p.eng.ReplayAdvanceRoot(rec.rootD * uint64(n))
		ff.meePrimed = rec.endPrimed
		ff.meeVirtual = true
	}

	// Flow trace: synthesize only the tail that can survive the ring.
	if steps := len(rec.steps); steps > 0 {
		keep := int64((flowTraceCap + steps - 1) / steps)
		if keep > n {
			keep = n
		}
		for j := n - keep; j < n; j++ {
			cycleStart := t0.Add(rec.dur * sim.Duration(j))
			for _, s := range rec.steps {
				s.At = cycleStart.Add(sim.Duration(s.At))
				p.recordStep(s)
			}
		}
	}

	ff.stats.CyclesReplayed += uint64(n)
}
