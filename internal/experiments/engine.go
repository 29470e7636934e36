package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"odrips/internal/lru"
	"odrips/internal/platform"
	"odrips/internal/sim"
)

// This file is the parallel experiment execution engine. Every figure of
// the paper's evaluation is built from independent platform simulations —
// each point constructs its own platform.New and scheduler, shares nothing
// mutable, and is bit-exact deterministic — so points fan out across
// worker goroutines and results are reassembled in submission order. The
// determinism guarantee: RunPoints output is byte-identical for any worker
// count, including 1.

// PointSpec describes one independent simulation point.
type PointSpec[T any] struct {
	// Label names the point in error messages ("ODRIPS @ 1.0 GHz",
	// "residency 6.6ms", ...).
	Label string
	// LabelFn lazily names the point when Label is empty. Sweeps submit
	// thousands of points whose names are only read on the error path, so
	// the engine defers the formatting instead of paying a Sprintf per
	// point.
	LabelFn func() string
	// Run evaluates the point. It must not share mutable state with other
	// points; `go test -race ./...` enforces this across the experiment
	// suite.
	Run func() (T, error)
}

// label resolves the point's name, formatting lazily if needed.
func (p *PointSpec[T]) label() string {
	if p.Label == "" && p.LabelFn != nil {
		return p.LabelFn()
	}
	return p.Label
}

// PointResult is one evaluated point, delivered at its submission index.
type PointResult[T any] struct {
	Index int
	Label string
	Value T
	Err   error
}

// Point-memo capacity bounds. The full paper sweep touches ~10,000
// residencies per configuration half and a comparison row holds two
// halves, so 1<<16 sweep entries cover every in-repo workload with slack;
// transition times are one per configuration class. Eviction is safe by
// construction — a hit is bit-identical to a recompute — so an undersized
// bound costs recomputation time, never correctness, and the lru counters
// (PointCacheStats) say when that is happening.
const (
	sweepCacheCap = 1 << 16
	transCacheCap = 1 << 10
)

// eng owns this package's process-scoped mutable state behind a single
// struct, so every access goes through the funnels below and the
// odrips-vet globalstate rule can ban loose package-level state: the
// worker-pool default the CLI harnesses set from -workers (0 means
// runtime.GOMAXPROCS(0)), and the bounded in-process point memo caches
// (see the "Point memo cache" section of runner.go). The caches are a
// pure, deterministic memo — a hit is bit-identical to a recompute —
// which is what makes a process-wide instance sound, and they are
// LRU-bounded so fleet-scale key streams stay O(capacity) in memory.
//
//odrips:allow globalstate the process composition root for experiments: the -workers default set once by flag wiring plus the bounded deterministic point memo whose hits are bit-identical to recomputes
var eng = struct {
	workers atomic.Int32
	sweep   *lru.Cache[sweepPointKey, float64]        // average mW per point
	trans   *lru.Cache[platform.Config, sim.Duration] // entry+exit per config
}{
	sweep: lru.New[sweepPointKey, float64](sweepCacheCap),
	trans: lru.New[platform.Config, sim.Duration](transCacheCap),
}

// PointMemoStats snapshots the in-process point-memo caches: counters
// since process start (or the last ResetPointCache) plus current sizes
// against their bounds.
type PointMemoStats struct {
	Sweep, Trans       lru.Stats
	SweepLen, TransLen int
	SweepCap, TransCap int
}

// PointCacheStats reports the point-memo cache counters; odrips-bench
// -memostats and the fleet report surface them.
func PointCacheStats() PointMemoStats {
	return PointMemoStats{
		Sweep:    eng.sweep.Stats(),
		Trans:    eng.trans.Stats(),
		SweepLen: eng.sweep.Len(),
		TransLen: eng.trans.Len(),
		SweepCap: eng.sweep.Cap(),
		TransCap: eng.trans.Cap(),
	}
}

// SetDefaultWorkers sets the package-wide worker-pool size used when a
// sweep or experiment does not specify its own (n <= 0 restores the
// GOMAXPROCS default).
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	eng.workers.Store(int32(n))
}

// resolveWorkers maps a knob value to a concrete pool size.
func resolveWorkers(n int) int {
	if n <= 0 {
		n = int(eng.workers.Load())
	}
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return n
}

// RunPoints evaluates the points on a pool of `workers` goroutines
// (workers <= 0 uses the package default, normally GOMAXPROCS) and returns
// the results in submission order, independent of scheduling. The first
// point error cancels the pool — workers stop claiming new points — and is
// returned after the in-flight points drain; the lowest-indexed error
// among the evaluated points is the one reported, so single-failure runs
// surface the same error at every worker count.
func RunPoints[T any](points []PointSpec[T], workers int) ([]PointResult[T], error) {
	results := make([]PointResult[T], len(points))
	if len(points) == 0 {
		return results, nil
	}
	workers = resolveWorkers(workers)
	if workers > len(points) {
		workers = len(points)
	}

	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(points) || stop.Load() {
					return
				}
				v, err := points[i].Run()
				lbl := points[i].Label
				if err != nil {
					lbl = points[i].label()
				}
				results[i] = PointResult[T]{Index: i, Label: lbl, Value: v, Err: err}
				if err != nil {
					// errgroup-style: poison the pool so idle workers stop
					// claiming points, then let in-flight ones drain.
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return results, firstError(points, results)
}

// firstError scans results in index order and wraps the first failure.
func firstError[T any](points []PointSpec[T], results []PointResult[T]) error {
	for i := range results {
		if results[i].Err != nil {
			if lbl := points[i].label(); lbl != "" {
				return fmt.Errorf("point %d (%s): %w", i, lbl, results[i].Err)
			}
			return fmt.Errorf("point %d: %w", i, results[i].Err)
		}
	}
	return nil
}

// runIndexed is a convenience wrapper for the common case of n homogeneous
// points: it evaluates run(0..n-1) on the pool and returns just the values
// in index order.
func runIndexed[T any](n, workers int, label func(int) string, run func(int) (T, error)) ([]T, error) {
	specs := make([]PointSpec[T], n)
	for i := range specs {
		i := i
		specs[i] = PointSpec[T]{Run: func() (T, error) { return run(i) }}
		if label != nil {
			specs[i].LabelFn = func() string { return label(i) }
		}
	}
	results, err := RunPoints(specs, workers)
	if err != nil {
		return nil, err
	}
	out := make([]T, n)
	for i := range results {
		out[i] = results[i].Value
	}
	return out, nil
}
