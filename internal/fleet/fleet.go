// Package fleet is the sharded multi-device simulation engine: it runs N
// device configurations — a base platform configuration crossed with
// per-device perturbations (crystal drift, battery capacity, wake period
// jitter, optional fault plans) — against one shared, bounded,
// concurrent cycle-memo plane (platform.MemoPlane), and reports
// deterministic fleet aggregates: battery-life percentiles, residency
// histogram, wake statistics, and cross-device memo hit rates.
//
// The paper's headline numbers are population claims (99.5% DRIPS
// residency, 28% battery-life extension for devices, plural); this
// package is the engine that evaluates them at population scale without
// paying population cost. Three collapse layers stack:
//
//  1. Run-level dedup. Devices identical up to battery capacity share
//     one simulation: capacity is applied to the result downstream of
//     the simulation. expand classifies the fleet once, by value, into a
//     class table; a 10k-device homogeneous-spread fleet therefore
//     simulates a handful of run classes and copies. The table holds
//     device kinds (a run class plus a battery pack), not devices: the
//     spread cycles its lists over the device index, so kinds repeat
//     with a period, the lcm of the list lengths, and the devices named
//     in Spread.Faults are exceptions. Classification, progress and
//     every integer aggregate cost O(period + faults) whatever the
//     fleet size; the one per-device loop left is aggregate's float
//     sums, kept in device-index order so each sum is bit-for-bit the
//     per-device one. Devices carry no
//     seed of their own: every run class is built from the preset's
//     config, seed included, so a job's platforms share one platform
//     template. A seed only varies DRAM context bytes (size-based
//     accounting, never content-based — the identity
//     platform.MemoClassKey documents and TestPowerIndependentOfContextSeed
//     and TestCanonicalPointConfigIdentities pin), so per-device seeds
//     would change no result.
//
//  2. Cross-device cycle replay. Distinct run classes of one memo class
//     (jittered wake periods, post-fault steady states) adopt each
//     other's steady-state cycle records through the shared plane, so
//     only the first device pays for each cycle class.
//
//  3. Steady-state fast-forward within each simulated run (DESIGN.md
//     §12), as for any single-device run.
//
// Above them, a run class's summary is a point memo of its own (class
// "run"): a run class the runtime's cache or the store holds is loaded,
// and builds no platform.
//
// Determinism: the run classes of each memo class form a chain that runs
// in run-index order on one worker, every executed run attached to the
// live plane. A platform reads its class's records live and publishes
// what it records; a chain runs one platform at a time and memo classes
// are disjoint, so each run sees exactly its executed chain
// predecessors' records whatever the schedule: every execution —
// results AND replay statistics — is a pure function of the spec and the
// plane's and run memo's content at job start.
// Results are assembled in run-class order (the experiments engine's
// discipline), making the whole report byte-identical at any
// -shards/-workers count.
package fleet

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"odrips/internal/battery"
	"odrips/internal/faults"
	"odrips/internal/platform"
	"odrips/internal/sim"
	"odrips/internal/workload"
)

// Spec describes one fleet job.
type Spec struct {
	// Name labels the job in reports.
	Name string
	// Devices is the fleet size.
	Devices int
	// Preset names the base configuration (platform.Preset); the
	// default is "odrips".
	Preset string
	// Horizon is the simulated wall time per device (default 6h).
	Horizon sim.Duration
	// Active and WakePeriod shape the connected-standby cycle: an Active
	// maintenance burst (default 2ms) followed by WakePeriod of idle
	// (default 30s) until a timer wake.
	Active     sim.Duration
	WakePeriod sim.Duration
	// Shards is the number of aggregation groups devices are split into
	// (contiguous index ranges; default 1). Shard count changes the
	// per-shard breakdown only, never the fleet-level aggregates.
	Shards int

	Spread Spread
}

// Spread is the per-device perturbation recipe. Each non-empty list is
// cycled over the device index, so perturbations cross-product cheaply.
// It carries no seed: every device runs the preset's (layer 1 of the
// package doc says why).
type Spread struct {
	// DriftPPB adds per-device slow-crystal frequency error on top of the
	// preset's. Distinct drifts are distinct memo classes (they change
	// timer behavior) and re-simulate.
	DriftPPB []int64
	// BatteryMWh overrides the pack nameplate capacity per device.
	// Capacity is applied downstream of the simulation, so it never
	// splits run classes.
	BatteryMWh []float64
	// JitterSteps adds per-device extra idle to the wake period,
	// quantized: devices sharing a step share a run class, and all steps
	// share the memo class (the plane covers them cross-device).
	JitterSteps []sim.Duration
	// Faults assigns fault plans to individual devices (sparse).
	Faults []DeviceFaults
}

// DeviceFaults installs a fault plan (faults package grammar) on one
// device index.
type DeviceFaults struct {
	Device int
	Plan   string
}

// Defaults for zero Spec fields.
const (
	DefaultHorizon    = 6 * sim.Hour
	DefaultActive     = 2 * sim.Millisecond
	DefaultWakePeriod = 30 * sim.Second
)

// baseConfig resolves the preset name (platform.Preset; "" is odrips).
func baseConfig(preset string) (platform.Config, error) {
	if preset == "" {
		preset = "odrips"
	}
	return platform.Preset(preset)
}

// withDefaults fills zero fields.
func (s Spec) withDefaults() Spec {
	if s.Horizon == 0 {
		s.Horizon = DefaultHorizon
	}
	if s.Active == 0 {
		s.Active = DefaultActive
	}
	if s.WakePeriod == 0 {
		s.WakePeriod = DefaultWakePeriod
	}
	if s.Shards == 0 {
		s.Shards = 1
	}
	return s
}

// Normalized returns the spec with defaults filled and validated — the
// form the job queue runs and hashes for job identities, so two
// submissions differing only in defaulted fields are the same job.
func (s Spec) Normalized() (Spec, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Validate checks a spec (after defaulting).
func (s Spec) Validate() error {
	if s.Devices < 1 {
		return fmt.Errorf("fleet: %d devices (want at least 1)", s.Devices)
	}
	if _, err := baseConfig(s.Preset); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	if s.Horizon < 0 || s.Active < 0 || s.WakePeriod <= 0 {
		return fmt.Errorf("fleet: bad cycle shape (horizon %v, active %v, wake period %v)", s.Horizon, s.Active, s.WakePeriod)
	}
	if s.Shards < 0 {
		return fmt.Errorf("fleet: negative shards")
	}
	if s.Shards > s.Devices {
		return fmt.Errorf("fleet: %d shards for %d devices", s.Shards, s.Devices)
	}
	for _, j := range s.Spread.JitterSteps {
		if j < 0 || j >= s.WakePeriod {
			return fmt.Errorf("fleet: jitter step %v out of [0, wake period)", j)
		}
	}
	for _, c := range s.Spread.BatteryMWh {
		if math.IsNaN(c) || math.IsInf(c, 0) || c <= 0 {
			return fmt.Errorf("fleet: battery capacity %v mWh (want finite and positive)", c)
		}
	}
	planned := make(map[int]bool, len(s.Spread.Faults))
	for _, df := range s.Spread.Faults {
		if df.Device < 0 || df.Device >= s.Devices {
			return fmt.Errorf("fleet: fault plan for device %d outside fleet of %d", df.Device, s.Devices)
		}
		if planned[df.Device] {
			return fmt.Errorf("fleet: device %d has two fault plans", df.Device)
		}
		planned[df.Device] = true
		if _, err := faults.Parse(df.Plan); err != nil {
			return fmt.Errorf("fleet: device %d: %w", df.Device, err)
		}
	}
	return nil
}

// kind is a device kind: a run class plus a battery pack. Every member
// of a kind reports the same values, so the engine computes them once.
type kind struct {
	run   int // run-class index
	pack  battery.Pack
	first int // lowest member device index
}

// exception is a device named in Spread.Faults: its kind replaces the
// kind of its slot.
type exception struct {
	device int
	kind   int
}

// runClass is the unit of result sharing: devices identical up to their
// battery pack run one simulation.
type runClass struct {
	rep    int             // lowest member device index
	cfg    platform.Config // the representative's config (the preset's seed)
	idle   sim.Duration
	cycles int
	plan   string
	memo   int // memo-class index
}

// memoClass is the unit of cycle-record sharing: a canonical config
// (platform.CanonicalConfig).
type memoClass struct {
	key string // platform.MemoClassKey: the plane and store key
	run int    // the representative's run class
}

// classTable is a classified fleet. The spread cycles every list over
// the device index, so kinds repeat with a period: device i is of kind
// slots[i%len(slots)] unless it is an exception. Exceptions are in
// device order; kinds, run and memo classes are in order of their
// lowest-indexed member. A slot whose every member is an exception
// holds -1.
type classTable struct {
	devices    int
	shards     int
	slots      []int
	exceptions []exception
	kinds      []kind
	runs       []runClass
	memos      []memoClass
}

// period is the least common multiple of the spread's list lengths,
// capped at the fleet size: past it, every device is its own slot.
func period(s Spec) int {
	p := 1
	for _, n := range []int{len(s.Spread.DriftPPB), len(s.Spread.BatteryMWh), len(s.Spread.JitterSteps)} {
		if n > 0 {
			g, b := p, n
			for b != 0 {
				g, b = b, g%b
			}
			p = min(p/g*n, s.Devices)
		}
	}
	return p
}

// expand classifies a defaulted, validated spec in O(period + faults),
// keyed by values: a memo class is the canonical config, a run class
// its memo class plus cycle shape and fault plan, a kind its run class
// plus battery capacity. Only the devices that can be the lowest member
// of a class are visited, in device order: each slot's lowest member
// that is not an exception, and every exception. So classes number as
// a walk over every device would number them.
func expand(s Spec) classTable {
	base, _ := baseConfig(s.Preset) // Validate rejected unknown presets
	p := period(s)
	plans := make(map[int]string, len(s.Spread.Faults))
	for _, df := range s.Spread.Faults {
		plans[df.Device] = df.Plan
	}
	t := classTable{devices: s.Devices, shards: s.Shards, slots: make([]int, p)}
	leads := make([]int, 0, p+len(plans))
	for j := range t.slots {
		t.slots[j] = -1
		i := j
		for _, ok := plans[i]; ok; _, ok = plans[i] {
			i += p
		}
		if i < s.Devices {
			leads = append(leads, i)
		}
	}
	for _, df := range s.Spread.Faults {
		leads = append(leads, df.Device)
	}
	slices.Sort(leads)

	type runKey struct {
		memo   int
		idle   sim.Duration
		cycles int
		plan   string
	}
	type kindKey struct {
		run int
		mwh float64
	}
	memoOf := make(map[platform.Config]int)
	runOf := make(map[runKey]int)
	kindOf := make(map[kindKey]int)
	for _, i := range leads {
		cfg := base
		if n := len(s.Spread.DriftPPB); n > 0 {
			cfg.XtalSlowPPB += s.Spread.DriftPPB[i%n]
		}
		canon := platform.CanonicalConfig(cfg)
		m, ok := memoOf[canon]
		if !ok {
			m = len(t.memos)
			memoOf[canon] = m
			t.memos = append(t.memos, memoClass{key: platform.MemoClassKey(cfg), run: len(t.runs)})
		}
		plan, faulted := plans[i]
		rk := runKey{memo: m, idle: s.WakePeriod, plan: plan}
		if n := len(s.Spread.JitterSteps); n > 0 {
			rk.idle += s.Spread.JitterSteps[i%n]
		}
		rk.cycles = max(int(s.Horizon/(s.Active+rk.idle)), 1)
		r, ok := runOf[rk]
		if !ok {
			r = len(t.runs)
			runOf[rk] = r
			t.runs = append(t.runs, runClass{rep: i, cfg: cfg, idle: rk.idle, cycles: rk.cycles, plan: plan, memo: m})
		}
		pack := battery.Tablet()
		if n := len(s.Spread.BatteryMWh); n > 0 {
			pack.CapacityMWh = s.Spread.BatteryMWh[i%n]
		}
		kk := kindKey{run: r, mwh: pack.CapacityMWh}
		k, ok := kindOf[kk]
		if !ok {
			k = len(t.kinds)
			kindOf[kk] = k
			t.kinds = append(t.kinds, kind{run: r, pack: pack, first: i})
		}
		if faulted {
			t.exceptions = append(t.exceptions, exception{device: i, kind: k})
		} else {
			t.slots[i%p] = k
		}
	}
	return t
}

// exceptionAt returns the position of the first exception at or after
// device i, and whether it is device i.
func (t *classTable) exceptionAt(i int) (int, bool) {
	return slices.BinarySearchFunc(t.exceptions, i, func(ex exception, i int) int { return cmp.Compare(ex.device, i) })
}

// kindOf returns device i's kind.
func (t *classTable) kindOf(i int) int {
	if e, ok := t.exceptionAt(i); ok {
		return t.exceptions[e].kind
	}
	return t.slots[i%len(t.slots)]
}

// members counts the devices below n in slot j of period p.
func members(n, j, p int) int {
	if n <= j {
		return 0
	}
	return (n - j + p - 1) / p
}

// tally reports the kinds of devices [lo, hi) to add: summed per kind,
// the n it passes are the kind's member counts in the range. A range
// longer than the period costs one call per slot, by arithmetic on the
// period, plus two per exception in it, which moves one member from its
// slot's kind (n = -1) to its own. A shorter range is walked device by
// device, so tallying every shard costs at most O(devices) even when
// shards are many and the period is long.
func (t *classTable) tally(lo, hi int, add func(k, n int)) {
	p := len(t.slots)
	if hi-lo <= p {
		for i := lo; i < hi; i++ {
			add(t.kindOf(i), 1)
		}
		return
	}
	for j, k := range t.slots {
		if k >= 0 {
			add(k, members(hi, j, p)-members(lo, j, p))
		}
	}
	e, _ := t.exceptionAt(lo)
	for ; e < len(t.exceptions) && t.exceptions[e].device < hi; e++ {
		ex := t.exceptions[e]
		if k := t.slots[ex.device%p]; k >= 0 {
			add(k, -1)
		}
		add(ex.kind, 1)
	}
}

// shardStart is the first device of shard sh: shards are the balanced
// contiguous split where device i is in shard i*shards/devices.
func (t *classTable) shardStart(sh int) int {
	return (sh*t.devices + t.shards - 1) / t.shards
}

// key is the run class's run-memo key, its fault plan in canonical
// form. Validate parsed every plan, so the raw plan the key falls back
// to is never used.
func (r *runClass) key(s Spec, t *classTable) runKey {
	k := runKey{memo: t.memos[r.memo].key, active: s.Active, idle: r.idle, cycles: r.cycles, plan: r.plan}
	if plan, err := faults.Parse(r.plan); err == nil {
		k.plan = plan.String()
	}
	return k
}

// workload builds the cycles every member of the class runs.
func (r *runClass) workload(s Spec) []workload.Cycle {
	return workload.Fixed(r.cycles, s.Active, r.idle)
}

// parseDur parses a human duration ("30s", "6h") into sim time.
// Durations whose picosecond representation overflows int64 (~106 days)
// are rejected rather than silently wrapped.
func parseDur(v string) (sim.Duration, error) {
	if v == "" {
		return 0, nil
	}
	td, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("fleet: %w", err)
	}
	ns := td.Nanoseconds()
	const maxNS = math.MaxInt64 / int64(sim.Nanosecond)
	if ns > maxNS || ns < -maxNS {
		return 0, fmt.Errorf("fleet: %v overflows simulated time (limit ~106 days)", td)
	}
	return sim.Duration(ns) * sim.Nanosecond, nil
}
