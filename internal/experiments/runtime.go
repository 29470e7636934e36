package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"odrips/internal/lru"
	"odrips/internal/memostore"
	"odrips/internal/platform"
	"odrips/internal/report"
)

// pointClasses are the point-memo classes (memo.go), in -memostats row
// order, each with the bound of its in-process cache. The full paper
// sweep touches ~10,000 residencies per configuration half and a
// comparison row holds two halves, so 1<<16 sweep entries cover every
// in-repo workload with slack; transition times are one per
// configuration class; -exp all takes 80 wake-latency samples and six
// rows each of coalescing and the MEE cache ablation; a fleet job holds
// one run class per slot of its spread's period plus one per fault
// plan. Eviction is safe by construction — a hit is bit-identical to a
// recompute — so an undersized bound costs recomputation time, never
// correctness, and the lru counters (MemoStats) say when that is
// happening.
var pointClasses = [...]struct {
	class, row string
	cap        int
}{
	{"sweep", "sweep point cache", 1 << 16},
	{"trans", "transition cache", 1 << 10},
	{"wakelat", "wake latency samples", 1 << 8},
	{"coalesce", "coalescing rows", 1 << 6},
	{"meecache", "MEE cache rows", 1 << 6},
	{"run", "fleet run classes", 1 << 12},
}

// memoCache is what the runtime reads of a class's typed cache.
type memoCache interface {
	Reset()
	Stats() lru.Stats
	Len() int
	Cap() int
}

// pointMemo is one class's typed cache and the number of its points the
// store served (a cache miss that did not simulate).
type pointMemo struct {
	cache  memoCache
	loaded atomic.Uint64
}

// Runtime is the state every experiment runs under, passed as a value:
// the cycle-memo plane every platform it builds joins (and, through it,
// the persistent memo store), the platform templates it builds from, the
// fast-forward mode, the worker-pool size, and the bounded in-process
// point memos. None of it reaches a result — every output is
// byte-identical under any store, mode or worker count — so two runtimes
// can run side by side in one process without interfering. The point
// caches are a pure, deterministic memo (a hit is bit-identical to a
// recompute), one per class, LRU-bounded so fleet-scale key streams stay
// O(capacity).
type Runtime struct {
	plane     *platform.MemoPlane
	templates *platform.Templates
	ff        platform.FFMode
	workers   int // <= 0: runtime.GOMAXPROCS(0) at each call

	memoMu sync.Mutex
	memos  map[string]*pointMemo // by class, each built on first use
}

// NewRuntime builds a runtime over plane (nil: a fresh storeless plane)
// running platforms in mode ff on pools of workers goroutines (workers
// <= 0 uses runtime.GOMAXPROCS(0)). The plane's store, if any, is the
// runtime's persistent memo store.
func NewRuntime(plane *platform.MemoPlane, ff platform.FFMode, workers int) *Runtime {
	if plane == nil {
		plane = platform.NewMemoPlane(nil, 0)
	}
	return &Runtime{
		plane:     plane,
		templates: platform.NewTemplates(),
		ff:        ff,
		workers:   workers,
		memos:     make(map[string]*pointMemo, len(pointClasses)),
	}
}

// Plane returns the memo plane every platform the runtime builds joins.
func (rt *Runtime) Plane() *platform.MemoPlane { return rt.plane }

// Store returns the persistent memo store (nil when persistence is off).
func (rt *Runtime) Store() *memostore.Store { return rt.plane.Store() }

// Flush writes every memo class and MEE op geometry the runtime's
// platforms discovered since the last Flush to its store
// (MemoPlane.Flush, MemoPlane.FlushOps). Call it before reading
// store statistics and before the process exits: runs never write.
func (rt *Runtime) Flush() {
	rt.plane.Flush()
	rt.plane.FlushOps()
}

// TemplateStats reports the platform-template cache's counters.
func (rt *Runtime) TemplateStats() platform.TemplateStats { return rt.templates.Stats() }

// Pool is the worker count RunPoints and the fleet engine size their
// pools to: the runtime's worker count when positive, else
// runtime.GOMAXPROCS(0).
func (rt *Runtime) Pool() int {
	if rt.workers > 0 {
		return rt.workers
	}
	return runtime.GOMAXPROCS(0)
}

// NewPlatform assembles a platform from the runtime's template of
// cfg.Seed, in the runtime's fast-forward mode, attached to its memo
// plane.
func (rt *Runtime) NewPlatform(cfg platform.Config) (*platform.Platform, error) {
	p, err := rt.templates.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := p.SetFastForward(rt.ff); err != nil {
		return nil, err
	}
	rt.plane.Attach(p)
	return p, nil
}

// std is the package's one piece of process-scoped state: the runtime
// behind the facade's zero-argument entry points (odrips.Fig1b and the
// rest), which have no caller to hand them one.
//
//odrips:allow globalstate the facade's default runtime: a value over memostore.Default() in FFOn mode, rebuilt when that store changes identity, whose point memos and plane replays are output-invariant
var std = struct {
	mu sync.Mutex
	rt *Runtime
}{rt: NewRuntime(platform.NewMemoPlane(memostore.Default(), 0), platform.FFOn, 0)}

// Default returns the runtime over memostore.Default() in FFOn mode with
// GOMAXPROCS workers. It is rebuilt, with empty point caches and a fresh
// plane, whenever the default store changes identity.
func Default() *Runtime {
	s := memostore.Default()
	std.mu.Lock()
	defer std.mu.Unlock()
	if std.rt.Store() != s {
		std.rt = NewRuntime(platform.NewMemoPlane(s, 0), platform.FFOn, 0)
	}
	return std.rt
}

// ResetPointCache drops every point Default() memoized, of every class,
// and zeroes their counters. It and PointCacheStats exist for the
// benchmark harness in _perfbench/, which drives the default runtime;
// programs build their own Runtime instead.
func ResetPointCache() {
	rt := Default()
	rt.memoMu.Lock()
	defer rt.memoMu.Unlock()
	for _, pm := range rt.memos {
		pm.cache.Reset()
		pm.loaded.Store(0)
	}
}

// pointMemoOf returns rt's memo of class, or nil before its first use.
func (rt *Runtime) pointMemoOf(class string) *pointMemo {
	rt.memoMu.Lock()
	defer rt.memoMu.Unlock()
	return rt.memos[class]
}

// pointCache returns rt's cache of class, or nil before its first use.
func (rt *Runtime) pointCache(class string) memoCache {
	if pm := rt.pointMemoOf(class); pm != nil {
		return pm.cache
	}
	return nil
}

// pointStats reads class's cache counters, size and bound and its store
// loads; a class not used yet reads zero of its bound.
func (rt *Runtime) pointStats(class string) (st lru.Stats, n, capacity int, loaded uint64) {
	if pm := rt.pointMemoOf(class); pm != nil {
		return pm.cache.Stats(), pm.cache.Len(), pm.cache.Cap(), pm.loaded.Load()
	}
	for _, pc := range pointClasses {
		if pc.class == class {
			capacity = pc.cap
		}
	}
	return lru.Stats{}, 0, capacity, 0
}

// PointCacheStats reports Default()'s point-memo counters.
func PointCacheStats() PointMemoStats { return Default().PointCacheStats() }

// PointMemoStats snapshots the sweep and transition point caches:
// counters since the runtime was built plus current sizes against their
// bounds. MemoStats reports every class.
type PointMemoStats struct {
	Sweep, Trans       lru.Stats
	SweepLen, TransLen int
	SweepCap, TransCap int
}

// PointCacheStats reports the sweep and transition cache counters.
func (rt *Runtime) PointCacheStats() PointMemoStats {
	var pc PointMemoStats
	pc.Sweep, pc.SweepLen, pc.SweepCap, _ = rt.pointStats(sweepMemo.Class)
	pc.Trans, pc.TransLen, pc.TransCap, _ = rt.pointStats(transMemo.Class)
	return pc
}

// MemoStats renders every memo layer's counters — the bounded in-process
// point caches, one row per class, the platform templates, the runtime's
// cycle memo plane, and the persistent store — as one table (odrips-bench
// -memostats prints it after the selected experiments run). A point row's
// misses are in-process cache misses; those the store served show as
// loaded, so misses − loaded points were simulated. The plane row shows
// its op table's records and the MEE ops its platforms ran for real.
func (rt *Runtime) MemoStats() *report.Table {
	t := report.NewTable("Memo statistics", "layer", "hits", "misses", "size", "detail")
	for _, pc := range pointClasses {
		st, n, capacity, loaded := rt.pointStats(pc.class)
		t.AddRow(pc.row,
			fmt.Sprintf("%d", st.Hits), fmt.Sprintf("%d", st.Misses),
			fmt.Sprintf("%d/%d", n, capacity),
			fmt.Sprintf("%d loaded, %d evictions", loaded, st.Evictions))
	}
	ts := rt.TemplateStats()
	t.AddRow("platform templates",
		fmt.Sprintf("%d", ts.Hits), fmt.Sprintf("%d", ts.Misses),
		fmt.Sprintf("%d/%d", ts.Len, ts.Cap),
		fmt.Sprintf("%d built, %d reused, %d evicted", ts.Puts, ts.Hits, ts.Evictions))
	ps := rt.plane.Stats()
	t.AddRow("cycle memo plane",
		fmt.Sprintf("%d", ps.Class.Hits), fmt.Sprintf("%d", ps.Class.Misses),
		fmt.Sprintf("%d/%d classes", ps.Classes, ps.MaxClasses),
		fmt.Sprintf("%d records, %d op records, %d run, %d class evictions", ps.Records, ps.OpRecords, ps.OpsRun, ps.Class.Evictions))
	ms := rt.Store().Stats()
	t.AddRow("persistent memo store",
		fmt.Sprintf("%d", ms.Hits), fmt.Sprintf("%d", ms.Misses),
		fmt.Sprintf("%d entries, %d B", ms.DiskEntries, ms.DiskBytes),
		fmt.Sprintf("%d writes, %d corrupt, %d skewed", ms.Writes, ms.Corrupt, ms.VersionSkew))
	t.AddRow("compute coordination",
		fmt.Sprintf("%d", ms.ClaimWaitHits), "-",
		fmt.Sprintf("%d claims owned", ms.ClaimsOwned),
		fmt.Sprintf("%d lost, %d takeovers", ms.ClaimsLost, ms.ClaimTakeovers))
	return t
}
