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
// it, every other device fast-forwards through it.
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

	adopted atomic.Uint64

	// WarmClass outcomes for cold classes. Its only wait is the store's
	// claim protocol — never under mu — so a parked warmer cannot block
	// unrelated class acquisition.
	warmLeads  atomic.Uint64
	warmShared atomic.Uint64
}

// NewMemoPlane creates a plane bounded to maxClasses configuration
// classes (maxClasses < 1 uses defaultPlaneClasses). store, when
// non-nil and readable, warms classes from disk on first acquisition and
// receives each class's bundle at the end of every successful attached
// run that added records to it. The plane's verification path is
// -fastforward=verify, which re-simulates and diffs adopted records.
func NewMemoPlane(store *memostore.Store, maxClasses int) *MemoPlane {
	if maxClasses < 1 {
		maxClasses = defaultPlaneClasses
	}
	return &MemoPlane{
		store:   store,
		classes: lru.New[string, *ffBundle](maxClasses),
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
// evict another class; the victim needs no flush, because a bundle is
// only dirty while one of its runs is in flight and that run flushes it
// when it exits, so the bound costs a reload, not recorded work.
func (pl *MemoPlane) acquire(classKey string) *ffBundle {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if b, ok := pl.classes.Get(classKey); ok {
		return b
	}
	b := newFFBundle(classKey, pl.store)
	switch payload, ok, err := pl.store.Load("cycles", []byte(classKey)); {
	case err != nil:
		// Typed corruption is a fail-safe miss by the store's contract:
		// counted there, the class starts cold, a later flush overwrites
		// the damaged entry.
	case ok:
		if recs, ops, derr := ffDecodeBundle(payload); derr == nil {
			b.records, b.ops = recs, ops
		}
		// A decode error degrades to a cold class: the entry passed the
		// store's checksum but predates a bundle-layout change that forgot
		// to bump ffBundleVersion; a later flush overwrites it. The
		// odrips-vet schemahash rule exists to make that path dead code.
	}
	pl.classes.Put(classKey, b)
	return b
}

// Attach hooks a platform into the plane: from then on the platform reads
// and publishes its memo class's shared bundle, so it replays every record
// the class holds or gains, and each successful RunCycles flushes the
// class if it gained records. The records the class holds now count as
// adopted. A platform nobody attaches keeps its records in the private
// bundle New gave it.
func (pl *MemoPlane) Attach(p *Platform) {
	b := pl.acquire(MemoClassKey(p.cfg))
	p.ff.bundle = b
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
// file: the owner computes (its attached run flushes the class when it
// exits) and then releases; everyone else waits for that flush and
// adopts the bundle before running. Every caller still runs its own
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
	return compute()
}

// claimClass coordinates one cold class through the store. It returns
// an owned claim (the caller computes, then releases), true after
// adopting another caller's flushed bundle into b, or neither when the
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
			recs, ops, derr := ffDecodeBundle(payload)
			if derr != nil {
				// An undecodable payload degrades to a cold class,
				// exactly like acquire's disk path.
				return nil, false, nil
			}
			b.adopt(recs, ops)
			return nil, true, nil
		}
	}
	return nil, false, nil
}

// adopt merges disk-origin records into the bundle. First publisher of
// a key (and window) wins, as everywhere in the memo plane — two holders
// of one carry byte-identical records by determinism. Adopted records are
// not dirty: the flushing process already persisted them.
func (b *ffBundle) adopt(recs ffRecords, ops ffOps) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for k, list := range recs {
		for _, cr := range list {
			b.records.add(k, cr)
		}
	}
	for k, r := range ops {
		if _, ok := b.ops[k]; !ok {
			b.ops[k] = r
		}
	}
}

// flush persists the bundle's unsaved records; without a writable store
// — a private bundle has none — it is a no-op. Callers must not hold the
// bundle's lock.
func (b *ffBundle) flush() {
	if !b.store.Mode().Writable() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.dirty || len(b.records)+len(b.ops) == 0 {
		return
	}
	b.store.Save("cycles", []byte(b.key), ffEncodeBundle(b.records, b.ops))
	b.dirty = false
}

// Flush persists every class that gained records since its last flush.
// Runs flush their own class when they exit, so this only finds work
// after a failed run left its class dirty.
func (pl *MemoPlane) Flush() {
	for _, key := range pl.classes.Keys() {
		if b, ok := pl.classes.Peek(key); ok {
			b.flush()
		}
	}
}

// MemoPlaneStats is a point-in-time snapshot of a plane.
type MemoPlaneStats struct {
	Classes    int       `json:"classes"`     // live configuration classes
	Records    int       `json:"records"`     // cycle records across all live classes
	OpRecords  int       `json:"op_records"`  // MEE op records across all live classes
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
	for _, key := range pl.classes.Keys() {
		if b, ok := pl.classes.Peek(key); ok {
			b.mu.Lock()
			st.Records += b.records.count()
			st.OpRecords += len(b.ops)
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
