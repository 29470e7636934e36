// Package experiments reproduces every table and figure of the paper's
// evaluation: the DRIPS power breakdown (Fig. 1(b)), the connected-standby
// profile (Fig. 2), the timer hand-over waveform (Fig. 3(b)), the Step
// calibration (§4.1.3), the technique comparison with break-even points
// (Fig. 6(a)), the core-frequency and DRAM-frequency sweeps (Fig. 6(b,c)),
// the emerging-memory variants (Fig. 6(d)), the context transfer latencies
// (§6.3), the platform parameters (Table 1), and the power-model validation
// (§7). Each experiment returns both raw values (asserted by tests and
// benchmarks) and a rendered report table.
//
// Point evaluations are embarrassingly parallel — each builds its own
// platform and scheduler — and run through the worker-pool engine in
// engine.go; results are deterministic at any worker count.
package experiments

import (
	"encoding/binary"
	"fmt"
	"math"

	"odrips/internal/platform"
	"odrips/internal/power"
	"odrips/internal/sim"
	"odrips/internal/workload"
)

// defaultCycles is the number of connected-standby cycles measured per
// configuration for headline numbers.
const defaultCycles = 3

// runConfig builds a platform and measures n standard 30 s cycles.
func (rt *Runtime) runConfig(cfg platform.Config, n int) (platform.Result, error) {
	p, err := rt.NewPlatform(cfg)
	if err != nil {
		return platform.Result{}, err
	}
	return p.RunCycles(workload.Fixed(n, 0, 30*sim.Second))
}

// SweepOptions controls the empirical break-even sweep (§7: residency from
// 0.6 ms to 1 s at 0.1 ms). The default grid covers the crossover region
// at 0.2 ms granularity; PaperGrid reproduces the full published sweep.
type SweepOptions struct {
	Enabled        bool
	Lo, Hi, Step   sim.Duration
	CyclesPerPoint int
}

// Validate checks that an enabled sweep describes a finite, advancing
// residency grid. A zero Step in particular would never advance the grid.
func (o SweepOptions) Validate() error {
	if !o.Enabled {
		return nil
	}
	if o.Step <= 0 {
		return fmt.Errorf("experiments: sweep step %v must be positive (a non-advancing grid would sweep forever)", o.Step)
	}
	if o.Lo <= 0 {
		return fmt.Errorf("experiments: sweep lower bound %v must be positive", o.Lo)
	}
	if o.Hi < o.Lo {
		return fmt.Errorf("experiments: sweep range inverted (lo %v > hi %v)", o.Lo, o.Hi)
	}
	if o.CyclesPerPoint < 0 {
		return fmt.Errorf("experiments: negative cycles per point %d", o.CyclesPerPoint)
	}
	return nil
}

// DefaultSweep covers the break-even region quickly.
func DefaultSweep() SweepOptions {
	return SweepOptions{
		Enabled:        true,
		Lo:             600 * sim.Microsecond,
		Hi:             12 * sim.Millisecond,
		Step:           200 * sim.Microsecond,
		CyclesPerPoint: 4,
	}
}

// PaperGrid is the full §7 sweep (0.6 ms – 1 s at 0.1 ms). It runs ~10,000
// points per configuration; use it from the command-line harness, not from
// unit tests.
func PaperGrid() SweepOptions {
	return SweepOptions{
		Enabled:        true,
		Lo:             600 * sim.Microsecond,
		Hi:             sim.Second,
		Step:           100 * sim.Microsecond,
		CyclesPerPoint: 1,
	}
}

// ---- Point memo cache ----
//
// Sweep comparisons re-simulate the same (config, residency, cycles)
// points constantly: SweepBreakEven holds its baseline fixed across every
// comparison row of Fig. 6(a)/(d), so the base half of each sweep is the
// same grid re-evaluated per row. Config is a pure value type (see the
// comparability guard in internal/platform), so points memoize on the
// exact triple. Simulations are deterministic, which makes the cache
// transparent: a hit is bit-identical to a recompute.

// sweepPointKey identifies one sweep measurement, keyed by the config's
// canonical fingerprint class rather than the literal config.
type sweepPointKey struct {
	cfg       platform.Config
	residency sim.Duration
	cycles    int
}

// ---- Persistent point memos ----
//
// Beyond the in-process maps, points round-trip through the
// content-addressed memo store (-memocache) so a warm process skips the
// simulations entirely. An entry is one 8-byte little-endian word — the
// sweep average's Float64bits or the transition duration — keyed by the
// canonical config's exact Go representation plus the grid coordinates.
// Determinism makes the equality contract exact: under -fastforward=verify
// the point is re-simulated and the stored bits must match to the last
// bit.

// pointDiskKey renders a stable store key for a canonicalized config.
func pointDiskKey(cfg platform.Config, residency sim.Duration, cycles int) []byte {
	return []byte(fmt.Sprintf("%#v|res=%d|n=%d", cfg, int64(residency), cycles))
}

// pointDiskLoad reads one 8-byte point from the runtime's store. Any
// failure — no store, miss, corruption, wrong size — is a cache miss.
func (rt *Runtime) pointDiskLoad(class string, key []byte) (uint64, bool) {
	payload, ok, err := rt.Store().Load(class, key)
	if err != nil || !ok || len(payload) != 8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(payload), true
}

// pointMemo funnels one 8-byte point through the persistent store:
// load, and on a miss simulate and save. Sweep workers that reach the
// same cold point together each simulate it — byte-identical bits, since
// points are deterministic — and the last save wins. Under
// -fastforward=verify no stored point is trusted: the point is
// re-simulated and diffed against the stored bits. With no store
// installed this degrades to a plain simulate call.
func (rt *Runtime) pointMemo(class string, diskKey []byte, simulate func() (uint64, error)) (uint64, error) {
	if rt.ff == platform.FFVerify {
		bits, err := simulate()
		if err != nil {
			return 0, err
		}
		if stored, ok := rt.pointDiskLoad(class, diskKey); ok && stored != bits {
			return 0, fmt.Errorf("experiments: fastforward verify: %s point diverged from persistent memo (stored %#x, computed %#x)", class, stored, bits)
		}
		return bits, nil
	}
	if bits, ok := rt.pointDiskLoad(class, diskKey); ok {
		return bits, nil
	}
	bits, err := simulate()
	if err != nil {
		return 0, err
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], bits)
	rt.Store().Save(class, diskKey, b[:])
	return bits, nil
}

// sweepAverage measures the average power of the idle cycle — entry, idle
// residency, and exit, excluding the identical active burst — with the
// deepest state forced (the paper's debug-switch methodology). Excluding
// the active burst isolates the energy trade the break-even point is
// about; including it only adds identical energy to both sides of the
// comparison while its 3 W level drowns the microjoule-scale signal at
// sub-millisecond residencies.
func (rt *Runtime) sweepAverage(cfg platform.Config, residency sim.Duration, cycles int) (float64, error) {
	key := sweepPointKey{cfg: platform.CanonicalConfig(cfg), residency: residency, cycles: cycles}
	if v, ok := rt.sweep.Get(key); ok {
		return v, nil
	}
	diskKey := pointDiskKey(key.cfg, residency, cycles)
	bits, err := rt.pointMemo("sweep", diskKey, func() (uint64, error) {
		cfg.ForceDeepest = true
		p, err := rt.NewPlatform(cfg)
		if err != nil {
			return 0, err
		}
		res, err := p.RunCycles(workload.Fixed(cycles, 2*sim.Millisecond, residency))
		if err != nil {
			return 0, err
		}
		var energyJ, seconds float64
		for _, st := range []power.State{power.Entry, power.Idle, power.Exit} {
			energyJ += res.StateEnergyJ[st]
			seconds += res.Residency[st] * res.Duration.Seconds()
		}
		if seconds <= 0 {
			return 0, fmt.Errorf("sweep: no idle-cycle time at %v", residency)
		}
		return math.Float64bits(energyJ * 1e3 / seconds), nil
	})
	if err != nil {
		return 0, err
	}
	mw := math.Float64frombits(bits)
	rt.sweep.Put(key, mw)
	return mw, nil
}

// transitionTime measures a configuration's entry+exit duration once, so
// the sweep can hold the wake period fixed across configurations.
func (rt *Runtime) transitionTime(cfg platform.Config) (sim.Duration, error) {
	key := platform.CanonicalConfig(cfg)
	if v, ok := rt.trans.Get(key); ok {
		return v, nil
	}
	diskKey := pointDiskKey(key, 0, 0)
	bits, err := rt.pointMemo("trans", diskKey, func() (uint64, error) {
		forced := cfg
		forced.ForceDeepest = true
		p, err := rt.NewPlatform(forced)
		if err != nil {
			return 0, err
		}
		res, err := p.RunCycles(workload.Fixed(1, 2*sim.Millisecond, 20*sim.Millisecond))
		if err != nil {
			return 0, err
		}
		return uint64(int64(res.EntryAvg + res.ExitAvg)), nil
	})
	if err != nil {
		return 0, err
	}
	d := sim.Duration(int64(bits))
	rt.trans.Put(key, d)
	return d, nil
}

// SweepBreakEven finds the first residency at which opt's measured average
// power drops below base's. The wake period is held constant across the
// two configurations (a fixed-interval timer wake, as a real sweep would
// arm): opt's longer transitions come out of its idle window, so the
// comparison is a pure energy trade rather than a duration dilution.
//
// Grid points are evaluated in worker-sized parallel chunks: each chunk
// fans out across the pool, then the chunk is scanned in residency order
// for the crossover, preserving the sequential early-exit on long grids
// (the full PaperGrid stops ~60 points in, not 10,000). The chunk equals
// the worker count — never larger — because overshoot past the crossover
// is pure waste, and the optimized configurations are the expensive half
// of each point (a context save/restore through the real MEE per cycle);
// on a one-worker runtime the scan is exactly the sequential early-exit. The
// returned break-even is identical at any worker count because the point
// list is truncated at the first crossover before interpolation.
func (rt *Runtime) SweepBreakEven(base, opt platform.Config, o SweepOptions) (sim.Duration, bool, error) {
	o.Enabled = true // callers gate on Enabled themselves; validate the grid
	if err := o.Validate(); err != nil {
		return 0, false, err
	}
	if o.CyclesPerPoint <= 0 {
		o.CyclesPerPoint = 1
	}
	workers := rt.Pool(0)
	transBase, err := rt.transitionTime(base)
	if err != nil {
		return 0, false, fmt.Errorf("sweep base transitions: %w", err)
	}
	transOpt, err := rt.transitionTime(opt)
	if err != nil {
		return 0, false, fmt.Errorf("sweep opt transitions: %w", err)
	}
	extra := transOpt - transBase

	// The evaluable grid: points whose optimized idle window survives the
	// longer transitions.
	var grid []sim.Duration
	for _, r := range workload.SweepResidencies(o.Lo, o.Hi, o.Step) {
		if r-extra >= 100*sim.Microsecond {
			grid = append(grid, r)
		}
	}

	var points []power.SweepPoint
scan:
	for start := 0; start < len(grid); start += workers {
		end := start + workers
		if end > len(grid) {
			end = len(grid)
		}
		batch, err := runIndexed(end-start, workers,
			func(i int) string { return fmt.Sprintf("residency %v", grid[start+i]) },
			func(i int) (power.SweepPoint, error) {
				r := grid[start+i]
				b, err := rt.sweepAverage(base, r, o.CyclesPerPoint)
				if err != nil {
					return power.SweepPoint{}, fmt.Errorf("sweep base at %v: %w", r, err)
				}
				op, err := rt.sweepAverage(opt, r-extra, o.CyclesPerPoint)
				if err != nil {
					return power.SweepPoint{}, fmt.Errorf("sweep opt at %v: %w", r, err)
				}
				return power.SweepPoint{Residency: r, BaseMW: b, OptMW: op}, nil
			})
		if err != nil {
			return 0, false, err
		}
		for _, pt := range batch {
			points = append(points, pt)
			// Early exit once the crossover is established; truncating here
			// keeps the point list — and thus the interpolated break-even —
			// independent of chunking and worker count.
			if pt.OptMW < pt.BaseMW {
				break scan
			}
		}
	}
	be, ok := power.BreakEvenFromSweep(points)
	return be, ok, nil
}
