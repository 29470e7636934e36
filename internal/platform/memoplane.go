package platform

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"odrips/internal/lru"
	"odrips/internal/memostore"
)

// This file is the shared cross-device cycle-memo plane, the only
// in-process cycle cache. Every experiments.Runtime holds exactly one
// (storeless unless built over a store) and attaches every platform it
// builds to it, so experiments, fleet jobs (DESIGN.md §15) and a
// server's job queue all share one cache per runtime, a single run
// being a fleet of one. A MemoPlane owns one
// bounded cache of cycle-record bundles, keyed by memo class — the
// canonical configuration (CanonicalConfig) — so every device of a fleet that
// shares a configuration class reads and publishes the same record set,
// live: the first device to discover a steady-state cycle pays for
// it, every other device fast-forwards through it. Beside the classes
// it owns one MEE op table (ffOpTable), which every attached platform
// shares whatever its class: an op record depends only on the engine
// state the op starts from and the region geometry.
//
// Why cross-device sharing is sound: a record is only ever used when the
// live boundary fingerprint recurs and the live crystal phases lie in its
// windows, both recomputed from live platform state at every cycle
// boundary (ffcycle.go). A record
// published by device A and adopted by device B therefore replays on B
// only at boundaries where B's observable state is bit-identical to the
// state A recorded from — any divergence (different drift, different
// context bytes reflected in the eMRAM hash, a fault's aftermath) changes
// the fingerprint and degrades to a full simulation, never to corruption.
// Keying classes by CanonicalConfig is sound because its rules are
// identities of New (the experiments' canonical tests prove them
// empirically): two configurations of one class build the same platform
// up to the seed, which varies only context bytes, and every
// fingerprinted quantity is size- or state-based, never
// DRAM-content-based.
//
// Determinism: bundle publication is commutative — records are immutable
// once published, first publisher of a key and window wins, and two
// publishers of the same key and window hold byte-identical records (same
// fingerprint, same cycle parameters, same integer clock answers,
// deterministic simulation) — so the plane's record content
// is independent of attach/publish interleaving as long as no class is
// evicted mid-job. Per-device replay statistics depend on who got there
// first: a platform reads its class bundle live, so platforms of one class
// run one after another (the fleet engine's per-memo-class chains) each
// see exactly their predecessors' records and get fixed statistics, while
// concurrent same-class platforms outside a chain may see each other's
// records, which can change FFStats, never results.

// defaultPlaneClasses bounds a plane that was created without an
// explicit class budget, which is every plane a runtime builds. Over a
// readable store, evicting a class costs a reload; over none, a
// re-simulation. Either way the bound trades that cost for resident
// memory (a record is about 2.9 KB in memory).
const defaultPlaneClasses = 128

// MemoPlane is a bounded, concurrent, shareable cycle-memo plane. All
// methods are safe for concurrent use.
type MemoPlane struct {
	store *memostore.Store // optional persistence backing; may be nil

	// mu serializes class acquisition so exactly one bundle exists per
	// class (a racing double-build would split publishers across orphan
	// bundles). Record access inside a bundle has its own lock.
	mu      sync.Mutex
	classes *lru.Cache[string, *ffBundle]

	// ops is the plane's one MEE op table: op records depend on no memo
	// class, so every platform attached to the plane shares it.
	ops *ffOpTable

	adopted atomic.Uint64

	// WarmClass outcomes for cold classes. Its only wait is the store's
	// claim protocol — never under mu — so a parked warmer cannot block
	// unrelated class acquisition.
	warmLeads  atomic.Uint64
	warmShared atomic.Uint64
}

// NewMemoPlane creates a plane bounded to maxClasses configuration
// classes (maxClasses < 1 uses defaultPlaneClasses). store, when
// non-nil and readable, warms classes from disk on first acquisition,
// and the op table each geometry on its first lookup. Over a writable
// store the plane is the only writer of its classes and op table: it
// writes a dirty class when WarmClass has discovered it, when acquire
// evicts it, and at Flush, and the op table's dirty geometries when
// WarmClass has discovered a class and at FlushOps. A process that exits
// without flushing loses what it discovered since: later runs miss it,
// never read wrong data.
// The plane's verification path is -fastforward=verify, which
// re-simulates and diffs adopted records.
func NewMemoPlane(store *memostore.Store, maxClasses int) *MemoPlane {
	if maxClasses < 1 {
		maxClasses = defaultPlaneClasses
	}
	return &MemoPlane{
		store:   store,
		classes: lru.New[string, *ffBundle](maxClasses),
		ops:     newFFOpTable(store),
	}
}

// MemoClassKey maps a configuration to its memo class: the key of its
// CanonicalConfig, under which the plane shares cycle records. See the
// soundness argument at the top of this file for why that is sound.
func MemoClassKey(cfg Config) string {
	return fmt.Sprintf("%#v", CanonicalConfig(cfg))
}

// acquire returns the plane's bundle for classKey, creating (and, with a
// readable store, disk-loading) it on first use. Creating a bundle may
// evict another class; a dirty victim is saved first, still under mu,
// so the bound costs a reload, not recorded work (a run still attached
// to the victim keeps publishing into it, unsaved).
func (pl *MemoPlane) acquire(classKey string) *ffBundle {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if b, ok := pl.classes.Get(classKey); ok {
		return b
	}
	b := newFFBundle(classKey)
	switch payload, ok, err := pl.store.Load("cycles", []byte(classKey)); {
	case err != nil:
		// Typed corruption is a fail-safe miss by the store's contract:
		// counted there, the class starts cold, a later save overwrites
		// the damaged entry.
	case ok:
		if recs, derr := ffDecodeBundle(payload); derr == nil {
			b.records = recs
		}
		// A decode error degrades to a cold class: the entry passed the
		// store's checksum but predates a bundle-layout change that forgot
		// to bump ffBundleVersion; a later save overwrites it. The
		// odrips-vet schemahash rule exists to make that path dead code.
	}
	if victim, ok := pl.classes.Put(classKey, b); ok {
		pl.save(victim)
	}
	return b
}

// Attach hooks a platform into the plane: from then on the platform reads
// and publishes its memo class's shared bundle and the plane's op table,
// so it replays every cycle record the class holds or gains and every MEE
// op any platform of the plane ran. Its runs only mark what they add
// dirty; the plane writes it (see NewMemoPlane). The cycle records the
// class holds now count as adopted. A platform nobody attaches keeps its
// records in the private bundle and op table New gave it, which nothing
// writes.
func (pl *MemoPlane) Attach(p *Platform) {
	b := pl.acquire(MemoClassKey(p.cfg))
	p.ff.bundle = b
	p.ff.ops = pl.ops
	b.mu.Lock()
	defer b.mu.Unlock()
	pl.adopted.Add(uint64(b.records.count()))
}

// WarmClass runs compute — a full device simulation expected to
// discover classKey's cycle records through an attached platform —
// under the store's claim protocol (DESIGN.md §17). A class that
// already holds records needs no coordination: compute replays cheaply.
// For a cold class over a writable store, callers in this and every
// other process sharing the store elect one discoverer through a claim
// file: the owner computes, and the plane writes the class — and the op
// table geometries the compute added records to — before the claim is
// released; everyone else waits for that write and adopts the bundle
// before running (its op table loads a geometry's entry when it first
// needs one). Every caller still runs its own
// compute — outcomes are per-caller; what is deduplicated is the
// discovery cost. Without a writable store, or after filesystem trouble
// or persistent claim churn, callers compute uncoordinated
// (byte-identical results, duplicated work). A caller whose ctx ends
// while it waits returns ctx's error (wrapped) without computing. No
// wait holds a plane or bundle lock.
func (pl *MemoPlane) WarmClass(ctx context.Context, classKey string, compute func() error) error {
	b := pl.acquire(classKey)
	b.mu.Lock()
	cold := len(b.records) == 0
	b.mu.Unlock()
	if !cold {
		return compute()
	}
	claim, adopted, err := pl.claimClass(ctx, b)
	if err != nil {
		return fmt.Errorf("platform: awaiting memo class claim: %w", err)
	}
	defer claim.Release()
	if adopted {
		pl.warmShared.Add(1)
	} else {
		pl.warmLeads.Add(1)
	}
	if err := compute(); err != nil {
		return err
	}
	pl.save(b) // before the deferred Release: waiters adopt it from disk
	pl.ops.save()
	return nil
}

// claimClass coordinates one cold class through the store. It returns
// an owned claim (the caller computes, then releases), true after
// adopting another caller's saved bundle into b, or neither when the
// caller should compute uncoordinated (no writable store, filesystem
// trouble, an undecodable bundle, or persistent claim churn). Its only
// error is ctx's, from the wait.
func (pl *MemoPlane) claimClass(ctx context.Context, b *ffBundle) (*memostore.Claim, bool, error) {
	st := pl.store
	if !st.Mode().Writable() {
		return nil, false, nil
	}
	key := []byte(b.key)
	// Bounded rounds: each either wins the claim, adopts a landed
	// bundle, or observes a vanished/stale claim and tries again.
	for round := 0; round < 8; round++ {
		c, err := st.Claim("cycles", key)
		if err != nil {
			return nil, false, nil
		}
		if c != nil {
			return c, false, nil
		}
		payload, ok, werr := st.AwaitClaimed(ctx, "cycles", key)
		if werr != nil {
			return nil, false, werr
		}
		if ok {
			recs, derr := ffDecodeBundle(payload)
			if derr != nil {
				// An undecodable payload degrades to a cold class,
				// exactly like acquire's disk path.
				return nil, false, nil
			}
			b.adopt(recs)
			return nil, true, nil
		}
	}
	return nil, false, nil
}

// adopt merges disk-origin records into the bundle. First publisher of
// a key (and window) wins, as everywhere in the memo plane — two holders
// of one carry byte-identical records by determinism. Adopted records are
// not dirty: the process that saved them already persisted them.
func (b *ffBundle) adopt(recs ffRecords) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for k, list := range recs {
		for _, cr := range list {
			b.records.add(k, cr)
		}
	}
}

// save writes b's records to the store if it gained any since it was
// last written; without a writable store it is a no-op. It is the only
// code that writes a cycles entry. Callers must not hold b's lock.
func (pl *MemoPlane) save(b *ffBundle) {
	if !pl.store.Mode().Writable() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.dirty {
		return
	}
	pl.store.Save("cycles", []byte(b.key), ffEncodeBundle(b.records))
	b.dirty = false
}

// Flush writes every live class that gained records since it was last
// written, each once however many runs it took: one store write per
// dirty class, which is what the benchmark harness's plane probe times.
// The op table has its own flush, FlushOps. Programs call both, through
// experiments.Runtime.Flush, before they report store statistics or
// exit; fleet.Exec calls that when a job ends.
func (pl *MemoPlane) Flush() {
	if !pl.store.Mode().Writable() {
		return
	}
	for _, key := range pl.classes.Keys() {
		if b, ok := pl.classes.Peek(key); ok {
			pl.save(b)
		}
	}
}

// FlushOps writes every geometry of the plane's op table that gained
// records since the table loaded or last wrote it, one "meeops" entry
// each.
func (pl *MemoPlane) FlushOps() { pl.ops.save() }

// MemoPlaneStats is a point-in-time snapshot of a plane.
type MemoPlaneStats struct {
	Classes    int       `json:"classes"`     // live configuration classes
	Records    int       `json:"records"`     // cycle records across all live classes
	OpRecords  int       `json:"op_records"`  // MEE op records in the plane's op table: at most 3 per geometry
	OpsRun     uint64    `json:"ops_run"`     // MEE ops with a table key its platforms ran for real (recorded, or compared under -fastforward verify)
	MaxClasses int       `json:"max_classes"` // the class bound
	Adopted    uint64    `json:"adopted"`     // records handed to attaching platforms so far
	WarmLeads  uint64    `json:"warm_leads"`  // cold-class WarmClass calls that discovered the class themselves (owned claim or uncoordinated)
	WarmShared uint64    `json:"warm_shared"` // cold-class WarmClass calls that adopted another caller's bundle through the claim
	Class      lru.Stats `json:"class_cache"` // class-cache counters (hits/misses/puts/evictions)
}

// Stats snapshots the plane. Records walks every live class, so this is
// a reporting call, not a hot-path one.
func (pl *MemoPlane) Stats() MemoPlaneStats {
	st := MemoPlaneStats{
		Classes:    pl.classes.Len(),
		MaxClasses: pl.classes.Cap(),
		Adopted:    pl.adopted.Load(),
		WarmLeads:  pl.warmLeads.Load(),
		WarmShared: pl.warmShared.Load(),
		Class:      pl.classes.Stats(),
	}
	st.OpRecords, st.OpsRun = pl.ops.counts()
	for _, key := range pl.classes.Keys() {
		if b, ok := pl.classes.Peek(key); ok {
			b.mu.Lock()
			st.Records += b.records.count()
			b.mu.Unlock()
		}
	}
	return st
}

// Store returns the plane's persistent backing (nil for a storeless
// plane).
func (pl *MemoPlane) Store() *memostore.Store { return pl.store }

// MemoSnapshot is a frozen copy of a plane's record content. Nothing
// attaches to it: it exists only for Snapshot, which the benchmark
// harness (_perfbench) times. The record pointers are shared with the
// plane (records are immutable once published); only the index maps are
// copied.
type MemoSnapshot struct {
	classes map[string]ffRecords
}

// Snapshot freezes the plane's current record content. Classes are
// walked in sorted key order so the copy itself is deterministic for a
// deterministic plane. Nothing in this module calls it; it stays only
// because the benchmark harness compiles against it.
func (pl *MemoPlane) Snapshot() *MemoSnapshot {
	snap := &MemoSnapshot{classes: make(map[string]ffRecords)}
	keys := pl.classes.Keys()
	sort.Strings(keys)
	for _, key := range keys {
		b, ok := pl.classes.Peek(key)
		if !ok {
			continue
		}
		b.mu.Lock()
		if len(b.records) > 0 {
			snap.classes[key] = b.records.clone()
		}
		b.mu.Unlock()
	}
	return snap
}
