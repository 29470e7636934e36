package experiments

import (
	"fmt"
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

// RunPoints evaluates run(0..n-1) on a pool of rt's worker count
// (Runtime.Pool) and returns the values in index order, independent of
// scheduling. run must not share mutable state across indices; `go test
// -race ./...` enforces this across the experiment suite. The first point
// error cancels the pool — workers stop claiming new points — and is
// returned after the in-flight points drain; the lowest-indexed error
// among the evaluated points is the one reported, so single-failure runs
// surface the same error at every worker count. label, when non-nil,
// names point i in that error ("residency 6.6ms", ...); it is only called
// on the error path, so sweeps pay no formatting per point.
func RunPoints[T any](rt *Runtime, n int, label func(int) string, run func(int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	workers := min(rt.Pool(), n)
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
				if i >= n || stop.Load() {
					return
				}
				if out[i], errs[i] = run(i); errs[i] != nil {
					// errgroup-style: poison the pool so idle workers stop
					// claiming points, then let in-flight ones drain.
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			continue
		}
		if label != nil {
			if lbl := label(i); lbl != "" {
				return nil, fmt.Errorf("point %d (%s): %w", i, lbl, err)
			}
		}
		return nil, fmt.Errorf("point %d: %w", i, err)
	}
	return out, nil
}
