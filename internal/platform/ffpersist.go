package platform

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"odrips/internal/clock"
	"odrips/internal/power"
	"odrips/internal/sim"
	"odrips/internal/workload"
)

// This file is the on-disk form of the cycle-replay memo (ffcycle.go):
// the bundle codec the memo plane (memoplane.go) loads and flushes
// through internal/memostore (DESIGN.md §13). The unit of persistence is
// a bundle: every cycle record for one memo class, stored under the
// class key. The store's header (schema version + build fingerprint)
// invalidates the cache wholesale on any code change, so the key only
// needs to be stable within a build — Config is a pure value type, so
// %#v is.
//
// Soundness does not rest on the decoder: a loaded record is only ever
// used when the live boundary fingerprint recurs and the live crystal
// phases lie in its windows (both recomputed from live state every
// boundary, exactly as for in-process records), so a stale or mismatched
// record is unreachable, and -fastforward=verify re-simulates every cycle
// and diffs it against the adopted record.

// ffPersistRecordCap replaces ffRecordCap for a platform attached to a
// memo plane. A workload that draws its idle period per
// cycle (workload.ConnectedStandby) makes one record per cycle, because
// no cycle parameters recur within the run; those records do recur
// across runs and devices once a plane shares them.
const ffPersistRecordCap = 8192

// ffBundleVersion versions the bundle payload layout inside the store
// entry (the store's schema version covers the envelope, this one the
// cycle-record serialization). Version 2 added the phase windows and
// dropped the phase residue from the key.
const ffBundleVersion = 2

// ffBundleSchemaHash pins the wire schema of the bundle codec. The marker
// below makes odrips-vet compute a structural hash over ffKey and
// cycleRecord (and every module type reachable from them) and compare it
// to this constant: change the shape of anything ffEncodeBundle
// serializes and vet fails with the new hash, forcing a deliberate
// ffBundleVersion bump alongside the re-recorded constant.
//
//odrips:schema ffKey cycleRecord
const ffBundleSchemaHash = "5557919be9867ff017d2b7c440fd913a08234a9e0ea03fb7d1bbf7640fc9c664"

// ffRecords indexes cycle records by key; the records of one key differ
// in their phase windows. Lists shared between holders are clipped, so an
// append by one never writes into another's backing array.
type ffRecords map[ffKey][]*cycleRecord

// add files cr under key unless a record with the same windows is
// already there (it then carries the same body). It reports whether cr
// was added.
func (rs ffRecords) add(key ffKey, cr *cycleRecord) bool {
	for _, old := range rs[key] {
		if old.win == cr.win {
			return false
		}
	}
	rs[key] = append(rs[key], cr)
	return true
}

// lookup returns the record of key whose windows hold the boundary
// phases ph, or nil.
func (rs ffRecords) lookup(key ffKey, ph [2]clock.Phase) *cycleRecord {
	for _, cr := range rs[key] {
		if cr.holds(ph) {
			return cr
		}
	}
	return nil
}

// count returns the number of records.
func (rs ffRecords) count() int {
	n := 0
	for _, list := range rs {
		n += len(list)
	}
	return n
}

// clone copies the index; the records themselves are shared.
func (rs ffRecords) clone() ffRecords {
	out := make(ffRecords, len(rs))
	for k, list := range rs {
		out[k] = slices.Clip(list)
	}
	return out
}

// adopt seeds the platform's cycle memo with shared records and returns
// how many it took.
func (ff *ffState) adopt(recs ffRecords) int {
	if len(recs) == 0 {
		return 0
	}
	if ff.records == nil {
		ff.records = make(ffRecords, len(recs))
	}
	n := 0
	for k, list := range recs {
		for _, cr := range list {
			if ff.records.add(k, cr) {
				n++
			}
		}
	}
	return n
}

// ffBundle is one memo class's record set inside a plane. Its mutex
// guards records/dirty; the record values themselves are immutable once
// published, so readers may hold pointers lock-free.
type ffBundle struct {
	key string

	mu      sync.Mutex
	records ffRecords
	dirty   bool
}

// ffPersistAdd publishes a freshly finalized record to the shared
// bundle. Records are immutable once published, so sharing the pointer
// across platforms is safe.
func (ff *ffState) ffPersistAdd(key ffKey, cr *cycleRecord) {
	b := ff.persist
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.records.add(key, cr) {
		b.dirty = true
	}
}

// ---- Bundle codec ----
//
// Hand-rolled little-endian serialization in a fixed field order. The
// decoder is total (bounds-checked, error-latched) and reconstructs the
// exact value shapes ffFinalizeRecording produces — non-nil empty steps
// slice, nil-when-empty ltrTimers, always-non-nil shallowD — because
// -fastforward=verify diffs disk-loaded records against freshly recorded
// ones with reflect.DeepEqual.

// ffEncodeBundle serializes every record, sorted by key and then by
// window for a deterministic artifact.
func ffEncodeBundle(records ffRecords) []byte {
	keys := make([]ffKey, 0, len(records))
	for k := range records {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if c := bytes.Compare(a.fp[:], b.fp[:]); c != 0 {
			return c < 0
		}
		if a.active != b.active {
			return a.active < b.active
		}
		if a.idle != b.idle {
			return a.idle < b.idle
		}
		return a.wake < b.wake
	})

	e := &ffEnc{}
	e.u64(ffBundleVersion)
	e.u64(uint64(records.count()))
	for _, k := range keys {
		list := slices.Clone(records[k])
		sort.Slice(list, func(i, j int) bool { return ffWindowLess(list[i].win, list[j].win) })
		for _, cr := range list {
			e.b32(k.fp)
			e.i64(int64(k.active))
			e.i64(int64(k.idle))
			e.i64(int64(k.wake))
			ffEncodeRecord(e, cr)
		}
	}
	return e.b
}

// ffWindowLess orders the records of one key by their windows.
func ffWindowLess(a, b [2]clock.Window) bool {
	for i := range a {
		x, y := a[i], b[i]
		switch {
		case x.Lo != y.Lo:
			return x.Lo.Less(y.Lo)
		case x.Hi != y.Hi:
			return x.Hi.Less(y.Hi)
		case x.AgeLo != y.AgeLo:
			return x.AgeLo < y.AgeLo
		case x.AgeHi != y.AgeHi:
			return x.AgeHi < y.AgeHi
		}
	}
	return false
}

// ffDecodeBundle parses a bundle payload; any malformation is an error
// (the caller degrades to an empty bundle).
func ffDecodeBundle(payload []byte) (ffRecords, error) {
	d := &ffDec{b: payload}
	if v := d.u64(); v != ffBundleVersion {
		return nil, fmt.Errorf("platform: bundle version %d (want %d)", v, ffBundleVersion)
	}
	n := d.len(64) // a key+record is far larger than 64 bytes
	records := make(ffRecords)
	for i := 0; i < n && d.err == nil; i++ {
		var k ffKey
		k.fp = d.b32()
		k.active = sim.Duration(d.i64())
		k.idle = sim.Duration(d.i64())
		k.wake = workload.WakeKind(d.i64())
		records[k] = append(records[k], ffDecodeRecord(d))
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("platform: bundle has %d trailing bytes", len(d.b)-d.off)
	}
	return records, nil
}

func ffEncodeRecord(e *ffEnc, cr *cycleRecord) {
	e.i64(int64(cr.dur))
	e.b32(cr.endFP)
	e.bool(cr.replayable)
	for _, w := range cr.win {
		e.u64(w.Lo.Hi)
		e.u64(w.Lo.Lo)
		e.u64(w.Hi.Hi)
		e.u64(w.Hi.Lo)
		e.i64(int64(w.AgeLo))
		e.i64(int64(w.AgeHi))
	}

	e.u64(uint64(len(cr.nomD))) // nomD, battD, idleByCmpD share len(comps)
	for i := range cr.nomD {
		e.energy(cr.nomD[i])
		e.energy(cr.battD[i])
		e.energy(cr.idleByCmpD[i])
	}
	for i := 0; i < ffNumStates; i++ {
		e.i64(int64(cr.resD[i]))
		e.energy(cr.enD[i])
	}
	e.u64(cr.transD)

	e.u64(cr.entriesD)
	e.u64(cr.exitsD)
	e.i64(int64(cr.entryTotalD))
	e.i64(int64(cr.exitTotalD))
	e.i64(int64(cr.ctxSaveLat))
	e.i64(int64(cr.ctxRestore))
	e.u64(cr.ctxVerifiedD)

	for i := 0; i < 3; i++ {
		e.u64(cr.wakeD[i])
		e.u64(cr.hubWakeD[i])
	}
	e.bool(cr.endWakeFired)
	shallow := make([]string, 0, len(cr.shallowD))
	for k := range cr.shallowD {
		shallow = append(shallow, k)
	}
	sort.Strings(shallow)
	e.u64(uint64(len(shallow)))
	for _, k := range shallow {
		e.str(k)
		e.u64(cr.shallowD[k])
	}

	e.ctrPatch(cr.mainTimerP)
	e.ctrPatch(cr.unitFastP)
	e.bool(cr.x24P.changed)
	e.i64(int64(cr.x24P.stableOff))

	e.u64(uint64(len(cr.ltrTimers)))
	for _, t := range cr.ltrTimers {
		e.str(t.owner)
		e.i64(int64(t.rel))
	}

	e.bool(cr.engPresent)
	e.u64(cr.rootD)
	e.bool(cr.endPrimed)

	e.u64(uint64(len(cr.steps)))
	for _, s := range cr.steps {
		e.str(s.Flow)
		e.str(s.Step)
		e.i64(int64(s.At))
		e.i64(int64(s.Duration))
		e.u64(math.Float64bits(s.EnergyUJ))
	}
}

func ffDecodeRecord(d *ffDec) *cycleRecord {
	cr := &cycleRecord{}
	cr.dur = sim.Duration(d.i64())
	cr.endFP = d.b32()
	cr.replayable = d.bool()
	for i := range cr.win {
		w := &cr.win[i]
		w.Lo = clock.Residue{Hi: d.u64(), Lo: d.u64()}
		w.Hi = clock.Residue{Hi: d.u64(), Lo: d.u64()}
		w.AgeLo = sim.Duration(d.i64())
		w.AgeHi = sim.Duration(d.i64())
	}

	nc := d.len(48)
	cr.nomD = make([]power.Energy, nc)
	cr.battD = make([]power.Energy, nc)
	cr.idleByCmpD = make([]power.Energy, nc)
	for i := 0; i < nc; i++ {
		cr.nomD[i] = d.energy()
		cr.battD[i] = d.energy()
		cr.idleByCmpD[i] = d.energy()
	}
	for i := 0; i < ffNumStates; i++ {
		cr.resD[i] = sim.Duration(d.i64())
		cr.enD[i] = d.energy()
	}
	cr.transD = d.u64()

	cr.entriesD = d.u64()
	cr.exitsD = d.u64()
	cr.entryTotalD = sim.Duration(d.i64())
	cr.exitTotalD = sim.Duration(d.i64())
	cr.ctxSaveLat = sim.Duration(d.i64())
	cr.ctxRestore = sim.Duration(d.i64())
	cr.ctxVerifiedD = d.u64()

	for i := 0; i < 3; i++ {
		cr.wakeD[i] = d.u64()
		cr.hubWakeD[i] = d.u64()
	}
	cr.endWakeFired = d.bool()
	ns := d.len(16)
	cr.shallowD = make(map[string]uint64, ns) // finalize always builds it
	for i := 0; i < ns; i++ {
		k := d.str()
		cr.shallowD[k] = d.u64()
	}

	cr.mainTimerP = d.ctrPatch()
	cr.unitFastP = d.ctrPatch()
	cr.x24P.changed = d.bool()
	cr.x24P.stableOff = sim.Duration(d.i64())

	nl := d.len(16)
	if nl > 0 { // finalize append-builds: nil when empty
		cr.ltrTimers = make([]ltrPatch, nl)
		for i := range cr.ltrTimers {
			cr.ltrTimers[i].owner = d.str()
			cr.ltrTimers[i].rel = sim.Duration(d.i64())
		}
	}

	cr.engPresent = d.bool()
	cr.rootD = d.u64()
	cr.endPrimed = d.bool()

	nst := d.len(40)
	cr.steps = make([]FlowStep, nst) // finalize always makes it, even empty
	for i := range cr.steps {
		cr.steps[i].Flow = d.str()
		cr.steps[i].Step = d.str()
		cr.steps[i].At = sim.Time(d.i64())
		cr.steps[i].Duration = sim.Duration(d.i64())
		cr.steps[i].EnergyUJ = math.Float64frombits(d.u64())
	}
	return cr
}

// ffEnc is a little-endian append encoder.
type ffEnc struct{ b []byte }

func (e *ffEnc) u64(v uint64)   { e.b = ffPutU64(e.b, v) }
func (e *ffEnc) i64(v int64)    { e.b = ffPutI64(e.b, v) }
func (e *ffEnc) bool(v bool)    { e.b = ffPutBool(e.b, v) }
func (e *ffEnc) str(s string)   { e.b = ffPutStr(e.b, s) }
func (e *ffEnc) b32(v [32]byte) { e.b = append(e.b, v[:]...) }
func (e *ffEnc) energy(v power.Energy) {
	e.i64(v.PJ)
	e.i64(v.ZJ)
}
func (e *ffEnc) ctrPatch(p ctrPatch) {
	e.bool(p.changed)
	e.u64(p.baseD)
	e.i64(int64(p.anchorOff))
	e.bool(p.running)
}

// ffDec is a bounds-checked, error-latching decoder: after the first
// malformation every read returns zero and err stays set, so decode
// paths need no per-read error plumbing.
type ffDec struct {
	b   []byte
	off int
	err error
}

func (d *ffDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("platform: bundle decode: "+format, args...)
	}
}

func (d *ffDec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b)-d.off < n {
		d.fail("truncated at offset %d (want %d bytes)", d.off, n)
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *ffDec) u64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

func (d *ffDec) i64() int64 { return int64(d.u64()) }

func (d *ffDec) bool() bool {
	s := d.take(1)
	if s == nil {
		return false
	}
	if s[0] > 1 {
		d.fail("bad bool byte %d", s[0])
		return false
	}
	return s[0] == 1
}

func (d *ffDec) b32() (v [32]byte) {
	copy(v[:], d.take(32))
	return v
}

func (d *ffDec) str() string {
	n := d.len(1)
	return string(d.take(n))
}

func (d *ffDec) energy() power.Energy {
	return power.Energy{PJ: d.i64(), ZJ: d.i64()}
}

func (d *ffDec) ctrPatch() ctrPatch {
	return ctrPatch{
		changed:   d.bool(),
		baseD:     d.u64(),
		anchorOff: sim.Duration(d.i64()),
		running:   d.bool(),
	}
}

// len reads a collection count and sanity-bounds it against the bytes
// remaining (each element needs at least minElem bytes), so a corrupt
// count cannot drive a huge allocation.
func (d *ffDec) len(minElem int) int {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	if max := uint64(len(d.b)-d.off) / uint64(minElem); n > max {
		d.fail("count %d exceeds remaining payload", n)
		return 0
	}
	return int(n)
}
