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

// This file is the on-disk form of both fast-forward memos, which the
// memo plane (memoplane.go) loads and writes through internal/memostore
// (DESIGN.md §13). Cycle records (ffcycle.go) persist as one bundle per
// memo class, stored under the class key in the store's "cycles" class.
// MEE op records (fastforward.go) depend on no memo class: a plane holds
// one op table, persisted as one "meeops" entry per region geometry. The
// store's header (schema version + build fingerprint) invalidates the
// cache wholesale on any code change, so a key only needs to be stable
// within a build — Config is a pure value type, so %#v is.
//
// Soundness does not rest on the decoders: a loaded cycle record is only
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
// the phase residue from the key; version 3 added the MEE op records;
// version 4 dropped the per-record state-transition count nothing read;
// version 5 moved the op records out to the plane's op table.
const ffBundleVersion = 5

// ffBundleSchemaHash pins the wire schema of the bundle codec. The marker
// below makes odrips-vet compute a structural hash over ffKey and
// cycleRecord (and every module type reachable from them) and compare it
// to this constant: change the shape of anything ffEncodeBundle
// serializes and vet fails with the new hash, forcing a deliberate
// ffBundleVersion bump alongside the re-recorded constant.
//
//odrips:schema ffKey cycleRecord
const ffBundleSchemaHash = "39dc8cf061ec713208d442994b59a50c662eda391578d1398c8ddb65675cb9fb"

// ffOpTableVersion versions the payload of a "meeops" entry.
const ffOpTableVersion = 1

// ffOpTableSchemaHash pins the wire schema of the op-table codec the way
// ffBundleSchemaHash pins the bundle's: a change to the shape of ffOpKey
// or ffOpRecord fails vet until ffOpTableVersion is bumped and the hash
// re-recorded.
//
//odrips:schema ffOpKey ffOpRecord
const ffOpTableSchemaHash = "4f709780b98dbd5f8871d55ee842823a06c04459bb47f16bc0597b86e8d7697a"

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

// ffBundle is one memo class's cycle records, the only cycle memo a
// platform reads or publishes to: New gives each platform a private one
// (no key), and a plane's Attach swaps in the class's shared one. A
// bundle cannot write itself: publishing only marks it dirty, and its
// plane decides when to save it. Its mutex guards every field below it;
// the record values themselves are immutable once published, so readers
// may hold pointers lock-free.
type ffBundle struct {
	key string

	mu      sync.Mutex
	records ffRecords
	dirty   bool // holds records its plane has not saved
}

// newFFBundle returns an empty bundle for classKey.
func newFFBundle(classKey string) *ffBundle {
	return &ffBundle{key: classKey, records: make(ffRecords)}
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

// ffOpTable is a set of MEE op records, the only op memo a platform
// reads or publishes to: New gives each platform a private one (no
// store), and a plane's Attach swaps in the plane's. A record depends on
// its key alone, so one table serves every memo class; it holds at most
// three records per geometry (ffOpKey.valid), and the geometries are the
// context-image and region sizes the plane's platforms use. Over a store
// the table loads a geometry's "meeops" entry the first time it is asked
// for that geometry, and save writes the geometries that gained records
// since.
//
// opMu serializes the real MEE ops that record op records, so concurrent
// platforms — parallel sweep points, fleet chains of different classes —
// run each op once between them (ffReplayOp). It is always taken before
// mu, which guards every field below it.
type ffOpTable struct {
	store *memostore.Store // nil for a private table
	opMu  sync.Mutex

	mu  sync.Mutex
	ops ffOps
	// geoms holds every geometry the table has looked up in its store:
	// true while it holds records the store lacks.
	geoms map[ffOpGeom]bool
	ran   uint64 // ops run for real and published (recorded or, under verify, compared)
}

// newFFOpTable returns an empty table over store (nil: private).
func newFFOpTable(store *memostore.Store) *ffOpTable {
	return &ffOpTable{store: store}
}

// loadLocked merges geometry g's store entry into the table the first
// time g is asked for. A missing, corrupt or undecodable entry leaves g
// cold: its ops run for real and a later save overwrites the entry.
// Callers hold t.mu.
func (t *ffOpTable) loadLocked(g ffOpGeom) {
	if _, seen := t.geoms[g]; seen {
		return
	}
	if t.geoms == nil {
		t.geoms = make(map[ffOpGeom]bool)
		t.ops = make(ffOps)
	}
	t.geoms[g] = false
	payload, ok, err := t.store.Load("meeops", ffOpGeomKey(g))
	if err != nil || !ok {
		return
	}
	got, ops, err := ffDecodeOpTable(payload)
	if err != nil || got != g {
		return
	}
	for k, r := range ops {
		t.ops[k] = r
	}
}

// lookup returns the record of key, if the table holds one.
func (t *ffOpTable) lookup(key ffOpKey) (ffOpRecord, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.loadLocked(key.geom)
	r, ok := t.ops[key]
	return r, ok
}

// publish files r, the record of an op that just ran for real, under key
// unless the table already holds a record there (first publisher wins,
// as for cycle records), and returns the record the table holds
// afterwards and whether it was r.
func (t *ffOpTable) publish(key ffOpKey, r ffOpRecord) (ffOpRecord, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.loadLocked(key.geom)
	t.ran++
	if old, ok := t.ops[key]; ok {
		return old, false
	}
	t.ops[key] = r
	t.geoms[key.geom] = true
	return r, true
}

// save writes every geometry that gained records since the table loaded
// or last wrote it; without a writable store it is a no-op.
func (t *ffOpTable) save() {
	if !t.store.Mode().Writable() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	dirty := make([]ffOpGeom, 0, len(t.geoms))
	for g, d := range t.geoms {
		if d {
			dirty = append(dirty, g)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return ffOpGeomLess(dirty[i], dirty[j]) })
	for _, g := range dirty {
		t.store.Save("meeops", ffOpGeomKey(g), ffEncodeOpTable(g, t.ops))
		t.geoms[g] = false
	}
}

// counts returns the number of records the table holds and of ops run
// for real through it.
func (t *ffOpTable) counts() (records int, ran uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ops), t.ran
}

// ---- Bundle codec ----
//
// Hand-rolled little-endian serialization in a fixed field order: the
// version, then the cycle records sorted by key and then by window. The
// decoder is total (bounds-checked, error-latched) and accepts only that
// canonical form — keys and windows strictly increasing, valid enum and
// bool bytes — so every payload it accepts re-encodes to the same bytes
// (FuzzBundleDecode). It reconstructs the exact value shapes
// ffFinalizeRecording produces — non-nil empty steps slice,
// nil-when-empty ltrTimers, always-non-nil shallowD — because
// -fastforward=verify diffs disk-loaded records against freshly recorded
// ones with reflect.DeepEqual.

// ffEncodeBundle serializes every cycle record in canonical order, for a
// deterministic artifact.
func ffEncodeBundle(records ffRecords) []byte {
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

// ffDecodeBundle parses a bundle payload; any malformation, or any
// departure from the canonical form ffEncodeBundle writes, is an error
// (the caller degrades to an empty bundle).
func ffDecodeBundle(payload []byte) (ffRecords, error) {
	d := &ffDec{b: payload}
	if v := d.u64(); v != ffBundleVersion {
		return nil, fmt.Errorf("platform: bundle version %d (want %d)", v, ffBundleVersion)
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
	if err := d.finish(); err != nil {
		return nil, err
	}
	return records, nil
}

// ---- Op-table codec ----
//
// A "meeops" entry holds one geometry's op records: the version, the
// geometry (data blocks, region base, cache lines, image length), a
// count, then per record a save byte, the start state and nine words of
// value (root delta, the six traffic counters, write-backs, start-state
// cache digest), sorted by key. Like the bundle decoder, the decoder
// accepts only the canonical form — keys strictly increasing and among
// the three a platform records — so it accepts at most three records
// and whatever it accepts re-encodes to the same bytes (FuzzOpTableDecode).

// ffOpRecordSize is the encoded size of one op record: its save byte,
// start state and value.
const ffOpRecordSize = 1 + 10*8

// ffOpGeomKey is geometry g's store key.
func ffOpGeomKey(g ffOpGeom) []byte {
	e := &ffEnc{}
	ffEncodeOpGeom(e, g)
	return e.b
}

func ffEncodeOpGeom(e *ffEnc, g ffOpGeom) {
	e.i64(int64(g.dataBlocks))
	e.u64(g.base)
	e.i64(int64(g.cacheLines))
	e.i64(int64(g.imageLen))
}

// ffOpGeomLess orders geometries.
func ffOpGeomLess(a, b ffOpGeom) bool {
	switch {
	case a.dataBlocks != b.dataBlocks:
		return a.dataBlocks < b.dataBlocks
	case a.base != b.base:
		return a.base < b.base
	case a.cacheLines != b.cacheLines:
		return a.cacheLines < b.cacheLines
	}
	return a.imageLen < b.imageLen
}

// ffOpKeyLess orders the op keys of one geometry: restores before
// saves, then by start state.
func ffOpKeyLess(a, b ffOpKey) bool {
	if a.save != b.save {
		return !a.save
	}
	return a.start < b.start
}

// ffEncodeOpTable serializes geometry g's records of ops in canonical
// order.
func ffEncodeOpTable(g ffOpGeom, ops ffOps) []byte {
	keys := make([]ffOpKey, 0, 3)
	for k := range ops {
		if k.geom == g {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return ffOpKeyLess(keys[i], keys[j]) })
	e := &ffEnc{}
	e.u64(ffOpTableVersion)
	ffEncodeOpGeom(e, g)
	e.u64(uint64(len(keys)))
	for _, k := range keys {
		r := ops[k]
		e.bool(k.save)
		e.u64(uint64(k.start))
		e.u64(r.op.RootDelta)
		e.u64(r.op.Stats.DataReads)
		e.u64(r.op.Stats.DataWrites)
		e.u64(r.op.Stats.MetaReads)
		e.u64(r.op.Stats.MetaWrites)
		e.u64(r.op.Stats.CacheHits)
		e.u64(r.op.Stats.CacheMisses)
		e.u64(r.op.Writebacks)
		e.u64(r.digest)
	}
	return e.b
}

// ffDecodeOpTable parses a "meeops" payload into its geometry and
// records; any malformation, or any departure from the canonical form
// ffEncodeOpTable writes, is an error (the caller leaves the geometry
// cold).
func ffDecodeOpTable(payload []byte) (ffOpGeom, ffOps, error) {
	d := &ffDec{b: payload}
	if v := d.u64(); v != ffOpTableVersion {
		return ffOpGeom{}, nil, fmt.Errorf("platform: op table version %d (want %d)", v, ffOpTableVersion)
	}
	var g ffOpGeom
	g.dataBlocks = int(d.i64())
	g.base = d.u64()
	g.cacheLines = int(d.i64())
	g.imageLen = int(d.i64())
	n := d.len(ffOpRecordSize)
	ops := make(ffOps, n)
	var prev ffOpKey
	for i := 0; i < n && d.err == nil; i++ {
		k := ffOpKey{geom: g}
		var r ffOpRecord
		k.save = d.bool()
		start := d.u64()
		k.start = ffOpStart(start)
		r.op.RootDelta = d.u64()
		r.op.Stats.DataReads = d.u64()
		r.op.Stats.DataWrites = d.u64()
		r.op.Stats.MetaReads = d.u64()
		r.op.Stats.MetaWrites = d.u64()
		r.op.Stats.CacheHits = d.u64()
		r.op.Stats.CacheMisses = d.u64()
		r.op.Writebacks = d.u64()
		r.digest = d.u64()
		if start > uint64(ffStartPrimed) || !k.valid() {
			d.fail("op record %d: no platform records a save=%v op from start state %d", i, k.save, start)
		}
		if i > 0 && !ffOpKeyLess(prev, k) {
			d.fail("op record %d: key out of order", i)
		}
		ops[k] = r
		prev = k
	}
	if err := d.finish(); err != nil {
		return ffOpGeom{}, nil, err
	}
	return g, ops, nil
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

// finish reports the first malformation, or bytes left over after a
// complete payload.
func (d *ffDec) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("platform: payload has %d trailing bytes", len(d.b)-d.off)
	}
	return nil
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
