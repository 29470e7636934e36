package fleet

import (
	"context"
	"fmt"

	"odrips/internal/experiments"
	"odrips/internal/faults"
	"odrips/internal/platform"
	"odrips/internal/workload"
)

// classRep is a deterministic class representative: the lowest-indexed
// device of the class.
type classRep struct {
	key string
	dev device
}

// classesOf collects, in first-appearance (= device index) order, one
// representative per class.
func classesOf(devices []device, key func(device) string) []classRep {
	seen := make(map[string]bool, len(devices))
	var reps []classRep
	for _, d := range devices {
		k := key(d)
		if seen[k] {
			continue
		}
		seen[k] = true
		reps = append(reps, classRep{key: k, dev: d})
	}
	return reps
}

// runOutcome is one simulated run class's full result.
type runOutcome struct {
	res platform.Result
	ff  platform.FFStats
}

// runDevice builds, attaches, faults, and runs one device simulation.
func runDevice(s Spec, d device, attach func(*platform.Platform)) (runOutcome, error) {
	p, err := platform.New(d.cfg)
	if err != nil {
		return runOutcome{}, err
	}
	if attach != nil {
		attach(p)
	}
	if d.planStr != "" {
		plan, err := faults.Parse(d.planStr)
		if err != nil {
			return runOutcome{}, err
		}
		if err := p.InjectFaults(plan); err != nil {
			return runOutcome{}, err
		}
	}
	res, err := p.RunCycles(cyclesFor(s, d))
	if err != nil {
		return runOutcome{}, err
	}
	return runOutcome{res: res, ff: p.FFStats()}, nil
}

// runReps evaluates one simulation per representative on the worker pool,
// results in representative order. ctx is checked at every device-run
// boundary — a canceled job stops claiming new simulations and surfaces
// ctx's error (wrapped; errors.Is(err, ctx.Err()) holds) after in-flight
// points drain. onDone, when non-nil, observes each completed
// representative from its worker goroutine (it must be concurrency-safe;
// the Progress counters are). warm, when non-nil, routes each run
// through plane.WarmClass keyed by the representative's class, so a
// cold class is discovered once per process (single-flight) and once
// fleet-wide (store claims) — phase 1 passes the live plane here, phase
// 2 runs uncoordinated against the frozen snapshot.
func runReps(ctx context.Context, s Spec, reps []classRep, attach func(*platform.Platform), warm *platform.MemoPlane, onDone func(classRep)) ([]runOutcome, error) {
	points := make([]experiments.PointSpec[runOutcome], len(reps))
	for i := range reps {
		rep := reps[i]
		d := rep.dev
		points[i] = experiments.PointSpec[runOutcome]{
			LabelFn: func() string { return fmt.Sprintf("device %d", d.index) },
			Run: func() (runOutcome, error) {
				if err := ctx.Err(); err != nil {
					return runOutcome{}, fmt.Errorf("fleet: canceled before device %d: %w", d.index, err)
				}
				var out runOutcome
				run := func() error {
					var rerr error
					out, rerr = runDevice(s, d, attach)
					return rerr
				}
				var err error
				if warm != nil {
					err = warm.WarmClass(ctx, rep.key, run)
				} else {
					err = run()
				}
				if err == nil && onDone != nil {
					onDone(rep)
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
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	devices, err := expand(s)
	if err != nil {
		return nil, err
	}

	memoReps := classesOf(devices, func(d device) string { return d.memoClass })
	runReps_ := classesOf(devices, func(d device) string { return d.runClass })
	prog.start(devices, len(memoReps), len(runReps_))
	if plane == nil {
		classes := s.PlaneClasses
		if classes < len(memoReps) {
			classes = len(memoReps)
		}
		plane = platform.NewMemoPlane(nil, classes)
	}

	// Phase 1: warm the plane with one full run per memo class. Classes
	// are disjoint, so publication interleaving cannot influence the
	// plane's content. The phase-1 outcomes are measurement too: they are
	// the cost the fleet actually paid, reported as warming work.
	warm, err := runReps(ctx, s, memoReps, plane.Attach, plane, func(classRep) { prog.warmRunDone() })
	if err != nil {
		return nil, err
	}

	// Freeze. Phase 2 runs against the immutable snapshot: every run
	// class outcome — result and replay statistics — is a pure function
	// of (spec, snapshot), independent of scheduling.
	snap := plane.Snapshot()
	outcomes, err := runReps(ctx, s, runReps_, snap.Attach, nil, func(r classRep) { prog.runClassDone(r.key) })
	if err != nil {
		return nil, err
	}
	byRun := make(map[string]runOutcome, len(runReps_))
	runRepIndex := make(map[string]int, len(runReps_))
	for i, r := range runReps_ {
		byRun[r.key] = outcomes[i]
		runRepIndex[r.key] = r.dev.index
	}
	warmCycles := make(map[string]platform.FFStats, len(memoReps))
	memoRepIndex := make(map[string]int, len(memoReps))
	warmCount := make(map[string]int, len(memoReps))
	for i, r := range memoReps {
		warmCycles[r.key] = warm[i].ff
		memoRepIndex[r.key] = r.dev.index
		warmCount[r.key] = r.dev.cycles
	}

	rep, err := aggregate(s, devices, byRun, runRepIndex, warmCycles, memoRepIndex, warmCount)
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

// Workload view used by tests: the exact cycles device i would run.
func DeviceCycles(s Spec, i int) ([]workload.Cycle, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	devices, err := expand(s)
	if err != nil {
		return nil, err
	}
	if i < 0 || i >= len(devices) {
		return nil, fmt.Errorf("fleet: device %d outside fleet of %d", i, len(devices))
	}
	return cyclesFor(s, devices[i]), nil
}
