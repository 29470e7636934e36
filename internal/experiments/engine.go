package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the parallel experiment execution engine. Every figure of
// the paper's evaluation is built from independent platform simulations —
// each point constructs its own platform and scheduler, shares nothing
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

// RunPoints evaluates the points on a pool of `workers` goroutines
// (workers <= 0 uses runtime.GOMAXPROCS(0)) and returns
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
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
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
