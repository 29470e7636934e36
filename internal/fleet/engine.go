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

// runDevice builds one run class's representative platform on rt,
// which attaches it to rt's plane, installs its fault plan, and runs it.
func runDevice(rt *experiments.Runtime, s Spec, r *runClass) (runOutcome, error) {
	p, err := rt.NewPlatform(r.cfg)
	if err != nil {
		return runOutcome{}, err
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

// runChains runs every run class on a pool of workers goroutines under
// rt and returns the outcomes in run-class order. Each memo class's run
// classes form a chain that runs in run-index order on one worker, every
// run attached to rt's plane (the package doc says why that is
// deterministic). The chain's head, t.memos[m].run, goes through the
// plane's WarmClass, so with a writable store a cold class is discovered
// once across every process sharing it. ctx is checked at every
// device-run boundary: a canceled job stops claiming new simulations and
// surfaces ctx's error (wrapped; errors.Is(err, ctx.Err()) holds) after
// in-flight runs drain. prog observes each finished chain head and run
// class.
func runChains(ctx context.Context, rt *experiments.Runtime, s Spec, t *classTable, workers int, prog *Progress) ([]runOutcome, error) {
	plane := rt.Plane()
	chains := make([][]int, len(t.memos))
	for r := range t.runs {
		m := t.runs[r].memo
		chains[m] = append(chains[m], r)
	}
	out := make([]runOutcome, len(t.runs)) // chains are disjoint: one writer per slot
	points := make([]experiments.PointSpec[struct{}], len(chains))
	for m, chain := range chains {
		var dev int // the device in flight, for the failure label
		points[m] = experiments.PointSpec[struct{}]{
			LabelFn: func() string { return fmt.Sprintf("device %d", dev) },
			Run: func() (struct{}, error) {
				for _, r := range chain {
					rc := &t.runs[r]
					dev = rc.rep
					if err := ctx.Err(); err != nil {
						return struct{}{}, fmt.Errorf("fleet: canceled before device %d: %w", rc.rep, err)
					}
					run := func() error {
						var err error
						out[r], err = runDevice(rt, s, rc)
						return err
					}
					head := r == t.memos[m].run
					var err error
					if head {
						err = plane.WarmClass(ctx, t.memos[m].key, run)
					} else {
						err = run()
					}
					if err != nil {
						return struct{}{}, err
					}
					if head {
						prog.warmRunDone()
					}
					prog.runClassDone(r)
				}
				return struct{}{}, nil
			},
		}
	}
	if _, err := experiments.RunPoints(points, workers); err != nil {
		return nil, err
	}
	return out, nil
}

// PlaneFor validates s and builds the plane a runtime over store holds.
func PlaneFor(s Spec, store *memostore.Store) (*platform.MemoPlane, error) {
	if _, err := s.Normalized(); err != nil {
		return nil, err
	}
	return platform.NewMemoPlane(store, 0), nil
}

// Run executes a fleet job in FFOn mode on a GOMAXPROCS pool: Exec over
// a runtime on plane (nil: a fresh storeless one).
func Run(s Spec, plane *platform.MemoPlane) (*Report, error) {
	return RunWithProgress(context.Background(), s, plane, nil)
}

// RunWithProgress is Run with Exec's serving hooks.
func RunWithProgress(ctx context.Context, s Spec, plane *platform.MemoPlane, prog *Progress) (*Report, error) {
	return Exec(ctx, experiments.NewRuntime(plane, platform.FFOn, 0), s, prog)
}

// Exec executes a fleet job under rt: platforms are built by
// rt.NewPlatform, so they run in rt's fast-forward mode and warm and
// draw from rt's memo plane, on a pool of s.Workers goroutines (0 uses
// rt's worker count).
//
// The report is byte-identical at any Workers count, and its Aggregates
// section additionally at any Shards count and fast-forward mode,
// provided rt's plane (128 classes unless built with another bound) has
// capacity for the job's memo classes and no other job mutates it
// concurrently (a congested or contended plane can change memo
// statistics — never results). The report's plane and store statistics are plane- and
// store-wide, so they include whatever else ran on rt.
//
// ctx cancels the job at the next device-run boundary (the returned
// error satisfies errors.Is(err, ctx.Err())), and prog, when non-nil,
// exposes live per-shard completion counters to concurrent readers (one
// Progress per run). Both may be nil.
func Exec(ctx context.Context, rt *experiments.Runtime, s Spec, prog *Progress) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	t := expand(s)
	prog.start(&t)

	outcomes, err := runChains(ctx, rt, s, &t, rt.Pool(s.Workers), prog)
	if err != nil {
		return nil, err
	}
	rep, err := aggregate(s, &t, outcomes)
	if err != nil {
		return nil, err
	}
	// Every run flushed its own class when it exited, so the store
	// counters already include the job's persistence.
	rep.Memo.Plane = rt.Plane().Stats()
	rep.Memo.Store = rt.Store().Stats()
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
