package fleet

import (
	"context"
	"fmt"

	"odrips/internal/experiments"
	"odrips/internal/faults"
	"odrips/internal/memostore"
	"odrips/internal/platform"
	"odrips/internal/power"
	"odrips/internal/sim"
	"odrips/internal/workload"
)

// runSummary is what aggregate reads of one run class's result, and
// the value of the run-class point memo.
type runSummary struct {
	AvgPowerMW    float64
	IdleResidency float64 // DRIPS residency share
	Duration      sim.Duration
	Cycles        int
	WakeCounts    map[string]uint64
	ShallowIdles  map[string]uint64
}

// runOutcome is one run class's summary and what this job did for it:
// an executed run also reports the cycles it replayed from the plane.
type runOutcome struct {
	sum      runSummary
	executed bool
	replayed uint64
}

// runKey identifies a run class's result: its memo class, cycle shape
// and canonical fault plan. The store's build fingerprint covers the
// code's constants.
type runKey struct {
	memo         string // platform.MemoClassKey
	active, idle sim.Duration
	cycles       int
	plan         string
}

// StoreKey renders the run class's stable store key.
func (k runKey) StoreKey() []byte {
	return fmt.Appendf(nil, "%s|active=%d|idle=%d|n=%d|faults=%s", k.memo, int64(k.active), int64(k.idle), k.cycles, k.plan)
}

var runMemo = experiments.PointMemo[runKey, runSummary]{
	Class: "run",
	Encode: func(s runSummary) []byte {
		var e experiments.MemoEncoder
		e.F64(s.AvgPowerMW)
		e.F64(s.IdleResidency)
		e.U64(uint64(s.Duration))
		e.U64(uint64(s.Cycles))
		e.Counts(s.WakeCounts)
		e.Counts(s.ShallowIdles)
		return e.Bytes()
	},
	Decode: func(b []byte) (runSummary, bool) {
		d := experiments.NewMemoDecoder(b)
		s := runSummary{
			AvgPowerMW:    d.F64(),
			IdleResidency: d.F64(),
			Duration:      sim.Duration(d.U64()),
			Cycles:        int(d.U64()),
			WakeCounts:    d.Counts(),
			ShallowIdles:  d.Counts(),
		}
		return s, d.Done()
	},
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
	return runOutcome{
		sum: runSummary{
			AvgPowerMW:    res.AvgPowerMW,
			IdleResidency: res.Residency[power.Idle],
			Duration:      res.Duration,
			Cycles:        res.Cycles,
			WakeCounts:    res.WakeCounts,
			ShallowIdles:  res.ShallowIdles,
		},
		executed: true,
		replayed: p.FFStats().CyclesReplayed,
	}, nil
}

// runChains serves every run class from the run memo or runs it on rt's
// worker pool, and returns the outcomes in run-class order. Each memo
// class's run classes form a chain that runs in run-index order on one
// worker, every executed run attached to rt's plane (the package doc
// says why that is deterministic). A run class the memo holds builds no
// platform and touches no plane class. The chain's first miss goes
// through the plane's WarmClass, so with a writable store a cold class
// is discovered once across every process sharing it. ctx is checked
// before every run class: a canceled job stops claiming new run classes
// and surfaces ctx's error (wrapped; errors.Is(err, ctx.Err()) holds)
// after in-flight runs drain. prog observes each chain's first run
// class and every run class as it finishes.
func runChains(ctx context.Context, rt *experiments.Runtime, s Spec, t *classTable, prog *Progress) ([]runOutcome, error) {
	plane := rt.Plane()
	chains := make([][]int, len(t.memos))
	for r := range t.runs {
		m := t.runs[r].memo
		chains[m] = append(chains[m], r)
	}
	out := make([]runOutcome, len(t.runs)) // chains are disjoint: one writer per slot
	inFlight := make([]int, len(chains))   // the device each chain is running, for the failure label
	_, err := experiments.RunPoints(rt, len(chains),
		func(m int) string { return fmt.Sprintf("device %d", inFlight[m]) },
		func(m int) (struct{}, error) {
			warmed := false
			for i, r := range chains[m] {
				rc := &t.runs[r]
				inFlight[m] = rc.rep
				if err := ctx.Err(); err != nil {
					return struct{}{}, fmt.Errorf("fleet: canceled before device %d: %w", rc.rep, err)
				}
				sum, loaded, err := runMemo.Get(rt, rc.key(s, t), func() (runSummary, error) {
					run := func() (err error) {
						out[r], err = runDevice(rt, s, rc)
						return err
					}
					var err error
					if !warmed {
						warmed = true
						err = plane.WarmClass(ctx, t.memos[m].key, run)
					} else {
						err = run()
					}
					return out[r].sum, err
				})
				if err != nil {
					return struct{}{}, err
				}
				if loaded {
					out[r] = runOutcome{sum: sum}
				}
				if i == 0 {
					prog.warmRunDone()
				}
				prog.runClassDone(r)
			}
			return struct{}{}, nil
		})
	if err != nil {
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
// draw from rt's memo plane, on rt's worker pool.
//
// The report is byte-identical at any worker count, and its Aggregates
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
//
// Every job that ran, canceled or failed ones too, ends with rt.Flush,
// so the memo classes its finished runs discovered reach rt's store
// before Exec returns.
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

	outcomes, err := runChains(ctx, rt, s, &t, prog)
	rt.Flush() // canceled or failed jobs too: keep what the finished runs discovered
	if err != nil {
		return nil, err
	}
	rep, err := aggregate(s, &t, outcomes)
	if err != nil {
		return nil, err
	}
	// Flushed above, so the store counters include the job's writes.
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
	return t.runs[t.kinds[t.kindOf(i)].run].workload(s), nil
}
