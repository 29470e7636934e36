package platform

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"odrips/internal/clock"
	"odrips/internal/memostore"
	"odrips/internal/power"
	"odrips/internal/sim"
	"odrips/internal/workload"
)

// This file is the on-disk form of both fast-forward memos: the bundle
// codec the memo plane (memoplane.go) loads and flushes through
// internal/memostore (DESIGN.md §13). The unit of persistence is a
// bundle: every cycle record (ffcycle.go) and every MEE op record
// (fastforward.go) for one memo class, stored under the class key. The
// store's header (schema version + build fingerprint) invalidates the
// cache wholesale on any code change, so the key only needs to be stable
// within a build — Config is a pure value type, so %#v is.
//
// Soundness does not rest on the decoder: a loaded cycle record is only
// ever used when the live boundary fingerprint recurs and the live
// crystal phases lie in its windows (both recomputed from live state
// every boundary, exactly as for in-process records), so a stale or
// mismatched record is unreachable; an op record only replays an op that
// starts from the engine state its key names; and -fastforward=verify
// re-simulates every cycle and re-executes every op, diffing each
// against the adopted record.

// ffBundleVersion versions the bundle payload layout inside the store
// entry (the store's schema version covers the envelope, this one the
// record serialization). Version 2 added the phase windows and dropped
// the phase residue from the key; version 3 added the MEE op records.
const ffBundleVersion = 3

// ffBundleSchemaHash pins the wire schema of the bundle codec. The marker
// below makes odrips-vet compute a structural hash over ffKey,
// cycleRecord, ffOpKey and ffOpRecord (and every module type reachable
// from them) and compare it to this constant: change the shape of
// anything ffEncodeBundle serializes and vet fails with the new hash,
// forcing a deliberate ffBundleVersion bump alongside the re-recorded
// constant.
//
//odrips:schema ffKey cycleRecord ffOpKey ffOpRecord
const ffBundleSchemaHash = "d145aa84e7ea04e4941ff7a8c6da5f13e3dc7c53467b33a9abda452d6b6092f3"

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

// ffBundle is one memo class's record set, the only memo a platform
// reads or publishes to — cycle records and MEE op records alike: New
// gives each platform a private one (no key, no store), and a plane's
// Attach swaps in the class's shared one. Its mutex guards every field
// below it; the record values themselves are immutable once published,
// so readers may hold pointers lock-free.
type ffBundle struct {
	key   string
	store *memostore.Store // persistence backing; nil never writes

	mu      sync.Mutex
	records ffRecords
	ops     ffOps
	opBusy  map[ffOpKey]chan struct{} // ops a platform is running to record; closed when it publishes or gives up
	dirty   bool
}

// newFFBundle returns an empty bundle for classKey over store.
func newFFBundle(classKey string, store *memostore.Store) *ffBundle {
	return &ffBundle{
		key:     classKey,
		store:   store,
		records: make(ffRecords),
		ops:     make(ffOps),
		opBusy:  make(map[ffOpKey]chan struct{}),
	}
}

// lookup returns the record of key whose windows hold the boundary
// phases ph, or nil.
func (b *ffBundle) lookup(key ffKey, ph [2]clock.Phase) *cycleRecord {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.records.lookup(key, ph)
}

// publish files a freshly finalized record. Records are immutable once
// published, so sharing the pointer across platforms is safe.
func (b *ffBundle) publish(key ffKey, cr *cycleRecord) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.records.add(key, cr) {
		b.dirty = true
	}
}

// opOrClaim returns the op record of key if the class holds one.
// Otherwise the caller claims key and must run the op, then publishOp or
// releaseOp it; a caller that finds key claimed waits for the claimant
// first, so concurrent platforms of a class — parallel sweep points —
// run each op once between them. A claimant never waits while it holds
// its claim, so the wait cannot deadlock.
func (b *ffBundle) opOrClaim(key ffOpKey) (ffOpRecord, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if r, ok := b.ops[key]; ok {
			return r, true
		}
		busy, ok := b.opBusy[key]
		if !ok {
			b.opBusy[key] = make(chan struct{})
			return ffOpRecord{}, false
		}
		b.mu.Unlock()
		<-busy
		b.mu.Lock()
	}
}

// publishOp files r under key unless the class already holds a record
// there (first publisher wins, as for cycle records), and returns the
// record the class holds afterwards and whether it was r. It ends any
// claim on key.
func (b *ffBundle) publishOp(key ffOpKey, r ffOpRecord) (ffOpRecord, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.endClaim(key)
	if old, ok := b.ops[key]; ok {
		return old, false
	}
	b.ops[key] = r
	b.dirty = true
	return r, true
}

// releaseOp ends a claim on key without a record, waking its waiters to
// run the op themselves. It is a no-op once publishOp ended the claim:
// from then on the record exists, so nobody claims key again.
func (b *ffBundle) releaseOp(key ffOpKey) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.endClaim(key)
}

func (b *ffBundle) endClaim(key ffOpKey) {
	if busy, ok := b.opBusy[key]; ok {
		close(busy)
		delete(b.opBusy, key)
	}
}

// ---- Bundle codec ----
//
// Hand-rolled little-endian serialization in a fixed field order: the
// version, the cycle records sorted by key and then by window, then the
// op records sorted by key. The decoder is total (bounds-checked,
// error-latched) and accepts only that canonical form — keys and windows
// strictly increasing, valid enum and bool bytes — so every payload it
// accepts re-encodes to the same bytes (FuzzBundleDecode). It
// reconstructs the exact value shapes ffFinalizeRecording produces —
// non-nil empty steps slice, nil-when-empty ltrTimers, always-non-nil
// shallowD — because -fastforward=verify diffs disk-loaded records
// against freshly recorded ones with reflect.DeepEqual.

// ffEncodeBundle serializes every cycle and op record in canonical
// order, for a deterministic artifact.
func ffEncodeBundle(records ffRecords, ops ffOps) []byte {
	keys := make([]ffKey, 0, len(records))
	for k := range records {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return ffKeyLess(keys[i], keys[j]) })

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

	opKeys := make([]ffOpKey, 0, len(ops))
	for k := range ops {
		opKeys = append(opKeys, k)
	}
	sort.Slice(opKeys, func(i, j int) bool { return ffOpKeyLess(opKeys[i], opKeys[j]) })
	e.u64(uint64(len(opKeys)))
	for _, k := range opKeys {
		r := ops[k]
		e.bool(k.save)
		e.u64(uint64(k.start))
		e.i64(int64(k.dataBlocks))
		e.u64(k.base)
		e.i64(int64(k.cacheLines))
		e.i64(int64(k.imageLen))
		e.u64(r.op.RootDelta)
		e.u64(r.op.Stats.DataReads)
		e.u64(r.op.Stats.DataWrites)
		e.u64(r.op.Stats.MetaReads)
		e.u64(r.op.Stats.MetaWrites)
		e.u64(r.op.Stats.CacheHits)
		e.u64(r.op.Stats.CacheMisses)
		e.u64(r.op.Writebacks)
		e.i64(int64(r.lat))
		e.u64(r.digest)
	}
	return e.b
}

// ffKeyLess orders cycle-record keys for the codec.
func ffKeyLess(a, b ffKey) bool {
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

// ffOpKeyLess orders op-record keys for the codec.
func ffOpKeyLess(a, b ffOpKey) bool {
	switch {
	case a.save != b.save:
		return !a.save
	case a.start != b.start:
		return a.start < b.start
	case a.dataBlocks != b.dataBlocks:
		return a.dataBlocks < b.dataBlocks
	case a.base != b.base:
		return a.base < b.base
	case a.cacheLines != b.cacheLines:
		return a.cacheLines < b.cacheLines
	}
	return a.imageLen < b.imageLen
}

// ffOpRecordSize is the encoded size of one op record with its key.
const ffOpRecordSize = 1 + 15*8

// ffDecodeBundle parses a bundle payload; any malformation, or any
// departure from the canonical form ffEncodeBundle writes, is an error
// (the caller degrades to an empty bundle).
func ffDecodeBundle(payload []byte) (ffRecords, ffOps, error) {
	d := &ffDec{b: payload}
	if v := d.u64(); v != ffBundleVersion {
		return nil, nil, fmt.Errorf("platform: bundle version %d (want %d)", v, ffBundleVersion)
	}
	n := d.len(64) // a key+record is far larger than 64 bytes
	records := make(ffRecords)
	var prev ffKey
	for i := 0; i < n && d.err == nil; i++ {
		var k ffKey
		k.fp = d.b32()
		k.active = sim.Duration(d.i64())
		k.idle = sim.Duration(d.i64())
		k.wake = workload.WakeKind(d.i64())
		cr := ffDecodeRecord(d)
		if list := records[k]; len(list) > 0 {
			if !ffWindowLess(list[len(list)-1].win, cr.win) {
				d.fail("record %d: windows out of order", i)
			}
		} else if i > 0 && !ffKeyLess(prev, k) {
			d.fail("record %d: key out of order", i)
		}
		records[k] = append(records[k], cr)
		prev = k
	}

	ops := make(ffOps)
	nops := d.len(ffOpRecordSize)
	var prevOp ffOpKey
	for i := 0; i < nops && d.err == nil; i++ {
		var k ffOpKey
		var r ffOpRecord
		k.save = d.bool()
		start := d.u64()
		k.start = ffOpStart(start)
		k.dataBlocks = int(d.i64())
		k.base = d.u64()
		k.cacheLines = int(d.i64())
		k.imageLen = int(d.i64())
		r.op.RootDelta = d.u64()
		r.op.Stats.DataReads = d.u64()
		r.op.Stats.DataWrites = d.u64()
		r.op.Stats.MetaReads = d.u64()
		r.op.Stats.MetaWrites = d.u64()
		r.op.Stats.CacheHits = d.u64()
		r.op.Stats.CacheMisses = d.u64()
		r.op.Writebacks = d.u64()
		r.lat = sim.Duration(d.i64())
		r.digest = d.u64()
		if start < uint64(ffStartFormatted) || start > uint64(ffStartPrimed) {
			d.fail("op record %d: start state %d", i, start)
		}
		if i > 0 && !ffOpKeyLess(prevOp, k) {
			d.fail("op record %d: key out of order", i)
		}
		ops[k] = r
		prevOp = k
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	if d.off != len(d.b) {
		return nil, nil, fmt.Errorf("platform: bundle has %d trailing bytes", len(d.b)-d.off)
	}
	return records, ops, nil
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
	var prevState string
	cr.shallowD = make(map[string]uint64, ns) // finalize always builds it
	for i := 0; i < ns; i++ {
		k := d.str()
		if i > 0 && d.err == nil && k <= prevState {
			d.fail("shallow state %q out of order", k)
		}
		cr.shallowD[k] = d.u64()
		prevState = k
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
