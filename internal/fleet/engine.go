package fleet

import (
	"context"
	"fmt"

	"odrips/internal/experiments"
	"odrips/internal/faults"
	"odrips/internal/memostore"
	"odrips/internal/platform"
	"odrips/internal/workload"
)

// runOutcome is one simulated run class's full result.
type runOutcome struct {
	res platform.Result
	ff  platform.FFStats
}

// runDevice builds, attaches, faults, and runs one run class's
// representative simulation.
func runDevice(s Spec, r *runClass, attach func(*platform.Platform)) (runOutcome, error) {
	p, err := platform.New(r.cfg)
	if err != nil {
		return runOutcome{}, err
	}
	if attach != nil {
		attach(p)
	}
	if r.plan != "" {
		plan, err := faults.Parse(r.plan)
		if err != nil {
			return runOutcome{}, err
		}
		if err := p.InjectFaults(plan); err != nil {
			return runOutcome{}, err
		}
	}
	res, err := p.RunCycles(r.workload(s))
	if err != nil {
		return runOutcome{}, err
	}
	return runOutcome{res: res, ff: p.FFStats()}, nil
}

// runReps evaluates n run-class representatives on the worker pool —
// the i-th is run class runOf(i) — with results in that order. ctx is checked at every device-run
// boundary — a canceled job stops claiming new simulations and surfaces
// ctx's error (wrapped; errors.Is(err, ctx.Err()) holds) after in-flight
// points drain. onDone, when non-nil, observes each completed run class
// from its worker goroutine (it must be concurrency-safe; the Progress
// counters are). warm, when non-nil, routes each run through
// plane.WarmClass keyed by the run's memo class, so a cold class is
// discovered once per process (single-flight) and once fleet-wide (store
// claims) — phase 1 passes the live plane here, phase 2 runs
// uncoordinated against the frozen snapshot.
func runReps(ctx context.Context, s Spec, t *classTable, n int, runOf func(int) int, attach func(*platform.Platform), warm *platform.MemoPlane, onDone func(run int)) ([]runOutcome, error) {
	points := make([]experiments.PointSpec[runOutcome], n)
	for i := range points {
		r := runOf(i)
		rc := &t.runs[r]
		points[i] = experiments.PointSpec[runOutcome]{
			LabelFn: func() string { return fmt.Sprintf("device %d", rc.rep) },
			Run: func() (runOutcome, error) {
				if err := ctx.Err(); err != nil {
					return runOutcome{}, fmt.Errorf("fleet: canceled before device %d: %w", rc.rep, err)
				}
				var out runOutcome
				run := func() error {
					var rerr error
					out, rerr = runDevice(s, rc, attach)
					return rerr
				}
				var err error
				if warm != nil {
					err = warm.WarmClass(ctx, t.memos[rc.memo].key, run)
				} else {
					err = run()
				}
				if err == nil && onDone != nil {
					onDone(r)
				}
				return out, err
			},
		}
	}
	results, err := experiments.RunPoints(points, s.Workers)
	if err != nil {
		return nil, err
	}
	out := make([]runOutcome, len(results))
	for i := range results {
		out[i] = results[i].Value
	}
	return out, nil
}

// newPlane builds a memo plane over store sized for the job: at least
// Spec.PlaneClasses, and never smaller than the job's own memo class
// count (an undersized plane thrashes — correct, but it re-simulates
// what it evicts).
func newPlane(s Spec, t *classTable, store *memostore.Store) *platform.MemoPlane {
	return platform.NewMemoPlane(store, max(s.PlaneClasses, len(t.memos)))
}

// PlaneFor builds a memo plane over store sized for the job, as Run(s,
// nil) does over a detached plane. One-shot CLI runs use this.
func PlaneFor(s Spec, store *memostore.Store) (*platform.MemoPlane, error) {
	s, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	t := expand(s)
	return newPlane(s, &t, store), nil
}

// Run executes a fleet job. plane is the shared memo plane the job warms
// and draws from; nil creates a fresh one sized for the job (the common
// case for one-shot CLI runs — long-lived services pass their own plane).
//
// The report is byte-identical at any Workers count, and its Aggregates
// section additionally at any Shards count and fast-forward mode,
// provided the plane has capacity for the job's memo classes and no
// other job mutates it concurrently (a congested or contended plane can
// change memo statistics — never results).
func Run(s Spec, plane *platform.MemoPlane) (*Report, error) {
	return RunWithProgress(context.Background(), s, plane, nil)
}

// RunWithProgress is Run with the serving hooks: ctx cancels the job at
// the next device-run boundary (the returned error satisfies
// errors.Is(err, ctx.Err())), and prog, when non-nil, exposes live
// per-shard completion counters to concurrent readers (one Progress per
// run). Both may be nil/background; Run is exactly that.
func RunWithProgress(ctx context.Context, s Spec, plane *platform.MemoPlane, prog *Progress) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	t := expand(s)
	prog.start(&t)
	if plane == nil {
		plane = newPlane(s, &t, nil)
	}

	// Phase 1: warm the plane with one full run per memo class. Classes
	// are disjoint, so publication interleaving cannot influence the
	// plane's content. The phase-1 outcomes are measurement too: they are
	// the cost the fleet actually paid, reported as warming work.
	memoRun := func(m int) int { return t.memos[m].run }
	warm, err := runReps(ctx, s, &t, len(t.memos), memoRun, plane.Attach, plane, func(int) { prog.warmRunDone() })
	if err != nil {
		return nil, err
	}

	// Freeze. Phase 2 runs against the immutable snapshot: every run
	// class outcome — result and replay statistics — is a pure function
	// of (spec, snapshot), independent of scheduling.
	snap := plane.Snapshot()
	self := func(r int) int { return r }
	outcomes, err := runReps(ctx, s, &t, len(t.runs), self, snap.Attach, nil, prog.runClassDone)
	if err != nil {
		return nil, err
	}

	rep, err := aggregate(s, &t, outcomes, warm)
	if err != nil {
		return nil, err
	}
	// Flush before snapshotting the store so the report's store counters
	// include the job's own persistence (a cold run shows its writes).
	plane.Flush()
	rep.Memo.Plane = plane.Stats()
	rep.Memo.Store = plane.StoreStats()
	return rep, nil
}

// DeviceCycles is the exact workload device i of the fleet runs.
func DeviceCycles(s Spec, i int) ([]workload.Cycle, error) {
	s, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	if i < 0 || i >= s.Devices {
		return nil, fmt.Errorf("fleet: device %d outside fleet of %d", i, s.Devices)
	}
	t := expand(s)
	return t.runs[t.devices[i].run].workload(s), nil
}
