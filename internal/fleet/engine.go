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
// representative simulation in fast-forward mode ff.
func runDevice(s Spec, r *runClass, ff platform.FFMode, attach func(*platform.Platform)) (runOutcome, error) {
	p, err := platform.New(r.cfg)
	if err != nil {
		return runOutcome{}, err
	}
	if err := p.SetFastForward(ff); err != nil {
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

// runReps evaluates n run-class representatives on a pool of workers
// goroutines in mode ff — the i-th is run class runOf(i) — with results
// in that order. ctx is checked at every device-run
// boundary — a canceled job stops claiming new simulations and surfaces
// ctx's error (wrapped; errors.Is(err, ctx.Err()) holds) after in-flight
// points drain. onDone, when non-nil, observes each completed run class
// from its worker goroutine (it must be concurrency-safe; the Progress
// counters are). warm, when non-nil, routes each run through
// plane.WarmClass keyed by the run's memo class, so with a writable
// store a cold class is discovered once across every process sharing it
// (store claims) — phase 1 passes the live plane here, phase 2 runs
// uncoordinated against the frozen snapshot.
func runReps(ctx context.Context, s Spec, t *classTable, ff platform.FFMode, workers, n int, runOf func(int) int, attach func(*platform.Platform), warm *platform.MemoPlane, onDone func(run int)) ([]runOutcome, error) {
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
					out, rerr = runDevice(s, rc, ff, attach)
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
	results, err := experiments.RunPoints(points, workers)
	if err != nil {
		return nil, err
	}
	out := make([]runOutcome, len(results))
	for i := range results {
		out[i] = results[i].Value
	}
	return out, nil
}

// newPlane builds a memo plane over store sized to the job's own memo
// class count, the only classes the job acquires on it.
func newPlane(t *classTable, store *memostore.Store) *platform.MemoPlane {
	return platform.NewMemoPlane(store, len(t.memos))
}

// PlaneFor builds a memo plane over store sized for the job, as Exec
// does for a nil plane.
func PlaneFor(s Spec, store *memostore.Store) (*platform.MemoPlane, error) {
	s, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	t := expand(s)
	return newPlane(&t, store), nil
}

// Run executes a fleet job in FFOn mode on a GOMAXPROCS pool with no
// store: Exec over a storeless runtime.
func Run(s Spec, plane *platform.MemoPlane) (*Report, error) {
	return RunWithProgress(context.Background(), s, plane, nil)
}

// RunWithProgress is Run with Exec's serving hooks.
func RunWithProgress(ctx context.Context, s Spec, plane *platform.MemoPlane, prog *Progress) (*Report, error) {
	return Exec(ctx, experiments.NewRuntime(nil, platform.FFOn, 0), s, plane, prog)
}

// Exec executes a fleet job under rt: platforms run in rt's fast-forward
// mode on a pool of s.Workers goroutines (0 uses rt's worker count).
// plane is the shared memo plane the job warms and draws from; nil
// creates one over rt's store sized for the job (the common case for
// one-shot CLI runs — long-lived services pass their own plane).
//
// The report is byte-identical at any Workers count, and its Aggregates
// section additionally at any Shards count and fast-forward mode,
// provided the plane has capacity for the job's memo classes and no
// other job mutates it concurrently (a congested or contended plane can
// change memo statistics — never results).
//
// ctx cancels the job at the next device-run boundary (the returned
// error satisfies errors.Is(err, ctx.Err())), and prog, when non-nil,
// exposes live per-shard completion counters to concurrent readers (one
// Progress per run). Both may be nil.
func Exec(ctx context.Context, rt *experiments.Runtime, s Spec, plane *platform.MemoPlane, prog *Progress) (*Report, error) {
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
		plane = newPlane(&t, rt.Store())
	}
	ff, workers := rt.FF(), rt.Pool(s.Workers)

	// Phase 1: warm the plane with one full run per memo class. Classes
	// are disjoint, so publication interleaving cannot influence the
	// plane's content. The phase-1 outcomes are measurement too: they are
	// the cost the fleet actually paid, reported as warming work.
	memoRun := func(m int) int { return t.memos[m].run }
	warm, err := runReps(ctx, s, &t, ff, workers, len(t.memos), memoRun, plane.Attach, plane, func(int) { prog.warmRunDone() })
	if err != nil {
		return nil, err
	}

	// Freeze. Phase 2 runs against the immutable snapshot: every run
	// class outcome — result and replay statistics — is a pure function
	// of (spec, snapshot), independent of scheduling.
	snap := plane.Snapshot()
	self := func(r int) int { return r }
	outcomes, err := runReps(ctx, s, &t, ff, workers, len(t.runs), self, snap.Attach, nil, prog.runClassDone)
	if err != nil {
		return nil, err
	}

	rep, err := aggregate(s, &t, outcomes, warm)
	if err != nil {
		return nil, err
	}
	// Every phase-1 run flushed its own class when it exited, so the
	// store counters already include the job's persistence.
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
