// Package odrips is a full-system reproduction of "Techniques for Reducing
// the Connected-Standby Energy Consumption of Mobile Devices" (Haj-Yahya,
// Sazeides, Alser, Rotem, Mutlu — HPCA 2020).
//
// The package assembles a Skylake-class mobile platform — processor,
// Sunrise-Point-class chipset, board crystals, FET, voltage regulators and
// DRAM — on a picosecond discrete-event simulator, and implements both the
// baseline deepest-runtime-idle-power state (DRIPS) and the paper's
// optimized ODRIPS with its three techniques:
//
//   - WakeUpOff — timer wake-up handling migrates to the chipset, counting
//     switches to a calibrated 32.768 kHz slow timer, and the 24 MHz
//     crystal turns off (§4).
//   - AONIOGate — the processor's always-on IO functions offload to
//     chipset GPIOs and the rail is power-gated through a board FET (§5).
//   - CtxSGXDRAM — the ~200 KB processor context moves from high-leakage
//     retention SRAMs to an SGX-style MEE-protected DRAM region (§6).
//
// Quick start:
//
//	p, err := odrips.NewPlatform(odrips.ODRIPSConfig())
//	if err != nil { ... }
//	res, err := p.RunCycles(odrips.ConnectedStandby(10, 1))
//	fmt.Printf("average power: %.1f mW\n", res.AvgPowerMW)
//
// Every table and figure of the paper's evaluation is regenerated by the
// experiment constructors (Fig1b, Fig2, Fig3b, Fig6a–d, Table1,
// CtxLatency, Calibration, ModelValidation) and by the benchmarks in
// bench_test.go; Experiments lists them in the order `cmd/odrips-bench`
// prints them.
package odrips

import (
	"context"
	"fmt"

	"odrips/internal/experiments"
	"odrips/internal/faults"
	"odrips/internal/fleet"
	"odrips/internal/memostore"
	"odrips/internal/platform"
	"odrips/internal/power"
	"odrips/internal/report"
	"odrips/internal/sim"
	"odrips/internal/workload"
)

// Core platform types.
type (
	// Config selects a platform build (techniques, frequencies, memory).
	Config = platform.Config
	// Platform is a fully assembled mobile system.
	Platform = platform.Platform
	// Result summarizes a connected-standby run.
	Result = platform.Result
	// Technique is a bitmask of the paper's three techniques.
	Technique = platform.Technique
	// Budget is the calibrated Skylake-class power/latency table.
	Budget = platform.Budget
	// Cycle is one connected-standby period of a workload.
	Cycle = workload.Cycle
	// WakeKind says what ends an idle window.
	WakeKind = workload.WakeKind
	// State is one of the four connected-standby power states.
	State = power.State
	// Profile is the analytic Equation-1 model.
	Profile = power.Profile
	// CycleEnergy feeds break-even analysis.
	CycleEnergy = power.CycleEnergy
	// Duration is simulated time in picoseconds.
	Duration = sim.Duration
	// Table is a rendered experiment table.
	Table = report.Table
	// FaultPlan is a deterministic schedule of fault injections.
	FaultPlan = faults.Plan
	// FaultStats counts injections and the recovery edges they exercised.
	FaultStats = platform.FaultStats
	// FlowStep is one recorded entry/exit flow step (or fault marker).
	FlowStep = platform.FlowStep
	// FFMode selects the steady-state fast-forward engine's behavior.
	FFMode = platform.FFMode
	// FFStats reports what the fast-forward engine did during a run.
	FFStats = platform.FFStats
)

// Fast-forward modes (DESIGN.md §12). Results are byte-identical across
// all three; verify additionally re-simulates memoized cycles and fails
// the run on any divergence.
const (
	// FFOn memoizes and replays steady-state work (the default).
	FFOn = platform.FFOn
	// FFOff always simulates in full.
	FFOff = platform.FFOff
	// FFVerify simulates in full and diffs every memo against the record.
	FFVerify = platform.FFVerify
)

// ParseFFMode parses the -fastforward flag values on|off|verify.
func ParseFFMode(s string) (FFMode, error) { return platform.ParseFFMode(s) }

// Techniques.
const (
	// WakeUpOff migrates timer wake-up handling to the chipset (§4).
	WakeUpOff = platform.WakeUpOff
	// AONIOGate power-gates the processor AON IO rail (§5).
	AONIOGate = platform.AONIOGate
	// CtxSGXDRAM moves the context to protected DRAM (§6).
	CtxSGXDRAM = platform.CtxSGXDRAM
	// ODRIPS combines all three techniques.
	ODRIPS = platform.ODRIPS
)

// Power states (Equation 1, Fig. 2).
const (
	// Active is C0 with the display off (kernel maintenance).
	Active = power.Active
	// Entry covers the DRIPS/ODRIPS entry flow.
	Entry = power.Entry
	// Idle is residency in DRIPS/ODRIPS.
	Idle = power.Idle
	// Exit covers the wake flow.
	Exit = power.Exit
)

// Wake kinds.
const (
	// WakeTimer is the scheduled OS timer.
	WakeTimer = workload.WakeTimer
	// WakeExternal is a network/peripheral wake.
	WakeExternal = workload.WakeExternal
	// WakeThermal is an EC thermal report.
	WakeThermal = workload.WakeThermal
)

// Time units for workload construction.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// DefaultConfig returns the paper's Table 1 baseline platform.
func DefaultConfig() Config { return platform.DefaultConfig() }

// ODRIPSConfig returns the full ODRIPS platform.
func ODRIPSConfig() Config { return platform.ODRIPSConfig() }

// SkylakeBudget returns the calibrated power/latency table.
func SkylakeBudget() Budget { return platform.Skylake() }

// NewPlatform assembles and boots a platform on the default runtime: in
// FFOn mode, sharing the memo plane over the ODRIPS_MEMOCACHE store.
func NewPlatform(cfg Config) (*Platform, error) { return experiments.Default().NewPlatform(cfg) }

// ConnectedStandby generates n paper-style cycles (~30 s idle, kernel
// maintenance bursts, occasional external/thermal wakes).
func ConnectedStandby(n int, seed int64) []Cycle { return workload.ConnectedStandby(n, seed) }

// FixedCycles generates n identical timer-wake cycles.
func FixedCycles(n int, active, idle Duration) []Cycle { return workload.Fixed(n, active, idle) }

// BreakEven returns the minimum idle residency at which opt beats base.
func BreakEven(base, opt CycleEnergy) (Duration, error) { return power.BreakEven(base, opt) }

// ParseFaultPlan parses the -faults grammar: `kind@cycle[.step][:arg]`
// clauses joined by `;` (kinds: wake, wakex, meefail, bitflip, drift,
// fetglitch). Install the plan with Platform.InjectFaults before RunCycles.
func ParseFaultPlan(s string) (FaultPlan, error) { return faults.Parse(s) }

// Experiment re-exports: each regenerates one table or figure of the paper.
type (
	// Fig1bResult is the DRIPS power breakdown (Fig. 1(b)).
	Fig1bResult = experiments.Fig1bResult
	// Fig2Result is the connected-standby profile (Fig. 2).
	Fig2Result = experiments.Fig2Result
	// Fig3bResult is the timer hand-over waveform (Fig. 3(b)).
	Fig3bResult = experiments.Fig3bResult
	// Fig6aResult is the technique comparison (Fig. 6(a)).
	Fig6aResult = experiments.Fig6aResult
	// Fig6bResult is the core-frequency sweep (Fig. 6(b)).
	Fig6bResult = experiments.Fig6bResult
	// Fig6cResult is the DRAM-frequency sweep (Fig. 6(c)).
	Fig6cResult = experiments.Fig6cResult
	// Fig6dResult is the emerging-memory study (Fig. 6(d)).
	Fig6dResult = experiments.Fig6dResult
	// SweepOptions controls the empirical break-even sweep.
	SweepOptions = experiments.SweepOptions
)

// Fig1b regenerates the DRIPS power breakdown.
func Fig1b() (*Fig1bResult, error) { return experiments.Default().Fig1b() }

// Fig2 regenerates the connected-standby profile.
func Fig2() (*Fig2Result, error) { return experiments.Default().Fig2() }

// Fig3b regenerates the timer hand-over waveform.
func Fig3b() (*Fig3bResult, error) { return experiments.Default().Fig3b() }

// Fig6a regenerates the technique/break-even comparison.
func Fig6a(sweep SweepOptions) (*Fig6aResult, error) { return experiments.Default().Fig6a(sweep) }

// Fig6b regenerates the core-frequency sweep.
func Fig6b() (*Fig6bResult, error) { return experiments.Default().Fig6b() }

// Fig6c regenerates the DRAM-frequency sweep.
func Fig6c() (*Fig6cResult, error) { return experiments.Default().Fig6c() }

// Fig6d regenerates the emerging-memory study.
func Fig6d(sweep SweepOptions) (*Fig6dResult, error) { return experiments.Default().Fig6d(sweep) }

// Table1 renders the platform parameters.
func Table1() *Table { return experiments.Table1() }

// CtxLatency regenerates the §6.3 context transfer latencies.
func CtxLatency() (*experiments.CtxLatencyResult, error) { return experiments.Default().CtxLatency() }

// Calibration regenerates the §4.1.3 Step calibration study.
func Calibration() (*experiments.CalibrationResult, error) {
	return experiments.Default().Calibration()
}

// ModelValidation regenerates the §7 power-model validation.
func ModelValidation() (*experiments.ValidationResult, error) {
	return experiments.Default().ModelValidation()
}

// DefaultSweep covers the break-even region quickly.
func DefaultSweep() SweepOptions { return experiments.DefaultSweep() }

// SweepBreakEven measures the empirical break-even residency of opt
// against base over the given residency grid, fanning grid points across
// the default runtime's worker pool (results are identical at any worker
// count; Runtime.SweepBreakEven runs on a runtime of your choosing).
func SweepBreakEven(base, opt Config, o SweepOptions) (Duration, bool, error) {
	return experiments.Default().SweepBreakEven(base, opt, o)
}

// Runtime is the state experiments and fleets run under — memo store,
// memo plane, fast-forward mode, worker count and point caches — passed
// as a value. The zero-argument experiment functions of this package run
// on a default runtime; build one with OpenRuntime to choose the state.
type Runtime = experiments.Runtime

// OpenRuntime builds a runtime from the CLI flags: memoMode is a
// -memocache mode (off|rw|ro), memoDir the store directory (default
// ".odrips-memocache"), ff the -fastforward mode and workers the -workers
// pool size (<= 0 uses GOMAXPROCS). An empty memoMode with an empty
// memoDir inherits the store ODRIPS_MEMOCACHE opened. A directory with
// an empty or off memoMode is an error naming -memocachedir: the
// directory would go unused. The runtime's memo plane is built over the
// store, or storeless when there is none. Loads are fail-safe by
// construction: corrupt, truncated or version-skewed entries degrade to
// recomputation. To audit a store, open it read-only under FFVerify,
// which re-simulates every loaded memo and fails on divergence.
func OpenRuntime(memoMode, memoDir string, ff FFMode, workers int) (*Runtime, error) {
	store := memostore.Default()
	if memoMode != "" || memoDir != "" {
		if memoMode == "" {
			memoMode = "off"
		}
		m, err := memostore.ParseMode(memoMode)
		if err != nil {
			return nil, err
		}
		if m == memostore.Off && memoDir != "" {
			return nil, fmt.Errorf("-memocachedir %q needs -memocache rw or ro", memoDir)
		}
		if memoDir == "" {
			memoDir = ".odrips-memocache"
		}
		if store, err = memostore.Open(memoDir, m); err != nil {
			return nil, err
		}
	}
	return experiments.NewRuntime(platform.NewMemoPlane(store, 0), ff, workers), nil
}

// PaperSweepGrid is the full §7 residency grid (0.6 ms – 1 s at 0.1 ms).
func PaperSweepGrid() SweepOptions { return experiments.PaperGrid() }

// AblationMEECache sweeps the MEE metadata cache size behind the §6.3
// latencies.
func AblationMEECache() (*experiments.MEECacheAblation, error) {
	return experiments.Default().AblationMEECache()
}

// AblationTimerAlternatives quantifies the §4.1.1 design choice.
func AblationTimerAlternatives() (*experiments.TimerAltAblation, error) {
	return experiments.Default().AblationTimerAlternatives()
}

// AblationIOGate quantifies the §5.1 FET-vs-EPG choice.
func AblationIOGate() (*experiments.GateAblation, error) {
	return experiments.Default().AblationIOGate()
}

// AblationReinitSensitivity sweeps the exit re-initialization cost that the
// break-even calibration pins.
func AblationReinitSensitivity() (*experiments.ReinitSensitivity, error) {
	return experiments.Default().AblationReinitSensitivity()
}

// WakeCoalescing quantifies Observation 1: device buffer size vs. wake
// rate, average power, and the LTR gating cliff.
func WakeCoalescing() (*experiments.CoalescingResult, error) {
	return experiments.Default().WakeCoalescing()
}

// ProcessScaling reproduces the §7 power-model construction: measure the
// 22 nm Haswell-ULT platform, scale per component to 14 nm, and validate
// against the direct Skylake measurement.
func ProcessScaling() (*experiments.ScalingResult, error) {
	return experiments.Default().ProcessScaling()
}

// Standby reproduces the §9 comparison of connected standby against legacy
// ACPI S3 suspend.
func Standby() (*experiments.StandbyComparison, error) {
	return experiments.Default().Standby()
}

// TransitionAnatomy decomposes one entry+exit into firmware steps with
// per-step latency and battery energy.
func TransitionAnatomy(tech Technique) (*experiments.TransitionBudget, error) {
	return experiments.Default().TransitionAnatomy(tech)
}

// CalibrationAging measures slow-timer drift when the crystal ratio shifts
// after the one-shot §4.1.3 calibration, and the recovery on recalibration.
func CalibrationAging() (*experiments.AgingResult, error) {
	return experiments.CalibrationAging()
}

// TDPSensitivity measures the ODRIPS saving across product TDP classes
// (the paper's §1 claim that low-TDP devices benefit most).
func TDPSensitivity() (*experiments.TDPResult, error) {
	return experiments.Default().TDPSensitivity()
}

// WakeLatency measures the entry/exit latency distributions over external
// wakes (the §3 user-experience claim).
func WakeLatency() (*experiments.WakeLatencyResult, error) {
	return experiments.Default().WakeLatency()
}

// FaultSweep measures the energy cost of every recovery edge the fault
// plane can exercise (aborted entries, restore retry/degradation, drift
// recalibration, FET re-drive) against a clean ODRIPS run.
func FaultSweep() (*experiments.FaultSweepReport, error) {
	return experiments.Default().FaultSweep()
}

// Fleet-scale simulation (DESIGN.md §15): run N perturbed device
// configurations against one shared cycle-memo plane and aggregate.
type (
	// FleetSpec describes one fleet job (size, preset, cycle shape,
	// per-device perturbation spread).
	FleetSpec = fleet.Spec
	// FleetSpread is the per-device perturbation recipe.
	FleetSpread = fleet.Spread
	// FleetDeviceFaults installs a fault plan on one device index.
	FleetDeviceFaults = fleet.DeviceFaults
	// FleetReport is a fleet job's aggregates, memo statistics, and
	// per-shard breakdown.
	FleetReport = fleet.Report
	// MemoPlane is a bounded, concurrent, shareable cycle-memo plane.
	MemoPlane = platform.MemoPlane
)

// Fleet runs a fleet job under rt, on rt's memo plane (backed by rt's
// persistent memo store when it has one), so jobs on one runtime share
// their cycles. The report's Aggregates section is byte-identical at any
// worker count, shard count, and fast-forward mode.
func Fleet(rt *Runtime, s FleetSpec) (*FleetReport, error) {
	return fleet.Exec(context.Background(), rt, s, nil)
}

// ParseFleetSpec decodes a fleet spec file (JSON with human-readable
// durations; see README "Fleet-scale simulation").
func ParseFleetSpec(data []byte) (FleetSpec, error) { return fleet.ParseSpecJSON(data) }
