// Package fleet is the sharded multi-device simulation engine: it runs N
// device configurations — a base platform configuration crossed with
// per-device perturbations (seed, crystal drift, battery capacity, wake
// period jitter, optional fault plans) — against one shared, bounded,
// concurrent cycle-memo plane (platform.MemoPlane), and reports
// deterministic fleet aggregates: battery-life percentiles, residency
// histogram, wake statistics, and cross-device memo hit rates.
//
// The paper's headline numbers are population claims (99.5% DRIPS
// residency, 28% battery-life extension for devices, plural); this
// package is the engine that evaluates them at population scale without
// paying population cost. Three collapse layers stack:
//
//  1. Run-level dedup. Devices identical up to output-inert parameters
//     share one simulation: the seed only varies DRAM context bytes
//     (size-based accounting, never content-based — the identity
//     platform.MemoClassKey documents and TestPowerIndependentOfContextSeed
//     and TestCanonicalPointConfigIdentities pin), and battery capacity
//     is applied to the result downstream of the simulation. expand
//     classifies the fleet once, by value, into a class table; a
//     10k-device homogeneous-spread fleet therefore simulates a handful
//     of run classes and copies.
//
//  2. Cross-device cycle replay. Distinct run classes of one memo class
//     (jittered wake periods, post-fault steady states) adopt each
//     other's steady-state cycle records through the shared plane, so
//     only the first device pays for each cycle class.
//
//  3. Steady-state fast-forward within each simulated run (DESIGN.md
//     §12), as for any single-device run.
//
// Determinism: the run classes of each memo class form a chain that runs
// in run-index order on one worker, every run attached to the live plane.
// A platform adopts the plane's records when it attaches and publishes
// only what it records, and memo classes are disjoint, so each run sees
// exactly its chain predecessors' records whatever the schedule: every
// execution — results AND replay statistics — is a pure function of the
// spec and the plane's content at job start. Results are assembled in
// run-class order (the experiments engine's discipline), making the whole
// report byte-identical at any -shards/-workers count.
package fleet

import (
	"fmt"
	"math"
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
	// Preset names the base configuration: "odrips" (default),
	// "baseline", "wake-up-off", "aon-io-gate", or "ctx-sgx-dram".
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
	// Workers sizes the simulation worker pool (0 = the runtime's count).
	Workers int

	Spread Spread
}

// Spread is the per-device perturbation recipe. Each non-empty list is
// cycled over the device index, so perturbations cross-product cheaply.
type Spread struct {
	// SeedBase/SeedStride assign device i the seed SeedBase+i*SeedStride
	// (defaults 1 and 1). Seeds are output-inert; they never split run
	// classes.
	SeedBase   int64
	SeedStride int64
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

// baseConfig resolves the preset name; ok is false for an unknown one.
func baseConfig(preset string) (cfg platform.Config, ok bool) {
	switch preset {
	case "", "odrips":
		return platform.ODRIPSConfig(), true
	case "baseline":
		return platform.DefaultConfig(), true
	case "wake-up-off":
		return platform.DefaultConfig().WithTechniques(platform.WakeUpOff), true
	case "aon-io-gate":
		return platform.DefaultConfig().WithTechniques(platform.WakeUpOff | platform.AONIOGate), true
	case "ctx-sgx-dram":
		return platform.DefaultConfig().WithTechniques(platform.CtxSGXDRAM), true
	}
	return platform.Config{}, false
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
	if s.Spread.SeedBase == 0 {
		s.Spread.SeedBase = 1
	}
	if s.Spread.SeedStride == 0 {
		s.Spread.SeedStride = 1
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
	if _, ok := baseConfig(s.Preset); !ok {
		return fmt.Errorf("fleet: unknown preset %q (want odrips, baseline, wake-up-off, aon-io-gate, or ctx-sgx-dram)", s.Preset)
	}
	if s.Horizon < 0 || s.Active < 0 || s.WakePeriod <= 0 {
		return fmt.Errorf("fleet: bad cycle shape (horizon %v, active %v, wake period %v)", s.Horizon, s.Active, s.WakePeriod)
	}
	if s.Shards < 0 || s.Workers < 0 {
		return fmt.Errorf("fleet: negative shards/workers")
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

// device is one expanded fleet member. Its index in the table is its
// device index.
type device struct {
	run   int // run-class index
	pack  battery.Pack
	shard int
}

// runClass is the unit of result sharing: devices identical up to their
// seed and battery pack run one simulation.
type runClass struct {
	rep    int             // lowest member device index
	cfg    platform.Config // the representative's config (seed included)
	idle   sim.Duration
	cycles int
	plan   string
	memo   int // memo-class index
}

// memoClass is the unit of cycle-record sharing: a seed-zeroed config.
type memoClass struct {
	key string // platform.MemoClassKey: the plane and store key
	run int    // the representative's run class
}

// classTable is a classified fleet. Devices are in index order; run and
// memo classes are in order of their representatives, which are each
// class's lowest-indexed device.
type classTable struct {
	devices []device
	runs    []runClass
	memos   []memoClass
}

// expand classifies a defaulted, validated spec in one pass, keyed by
// values: a memo class is the config with its seed zeroed, a run class
// its memo class plus cycle shape and fault plan. Shard assignment is
// the balanced contiguous split index*Shards/Devices.
func expand(s Spec) classTable {
	base, _ := baseConfig(s.Preset) // Validate rejected unknown presets
	base.Seed = 0
	plans := make(map[int]string, len(s.Spread.Faults))
	for _, df := range s.Spread.Faults {
		plans[df.Device] = df.Plan
	}
	type runKey struct {
		memo   int
		idle   sim.Duration
		cycles int
		plan   string
	}
	memoOf := make(map[platform.Config]int)
	runOf := make(map[runKey]int)
	t := classTable{devices: make([]device, s.Devices)}
	for i := range t.devices {
		cfg := base
		if n := len(s.Spread.DriftPPB); n > 0 {
			cfg.XtalSlowPPB += s.Spread.DriftPPB[i%n]
		}
		m, ok := memoOf[cfg]
		if !ok {
			m = len(t.memos)
			memoOf[cfg] = m
			t.memos = append(t.memos, memoClass{key: platform.MemoClassKey(cfg), run: len(t.runs)})
		}
		k := runKey{memo: m, idle: s.WakePeriod, plan: plans[i]}
		if n := len(s.Spread.JitterSteps); n > 0 {
			k.idle += s.Spread.JitterSteps[i%n]
		}
		k.cycles = max(int(s.Horizon/(s.Active+k.idle)), 1)
		r, ok := runOf[k]
		if !ok {
			r = len(t.runs)
			runOf[k] = r
			cfg.Seed = s.Spread.SeedBase + int64(i)*s.Spread.SeedStride
			t.runs = append(t.runs, runClass{rep: i, cfg: cfg, idle: k.idle, cycles: k.cycles, plan: k.plan, memo: m})
		}
		d := &t.devices[i]
		d.run = r
		d.pack = battery.Tablet()
		if n := len(s.Spread.BatteryMWh); n > 0 {
			d.pack.CapacityMWh = s.Spread.BatteryMWh[i%n]
		}
		d.shard = i * s.Shards / s.Devices
	}
	return t
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
