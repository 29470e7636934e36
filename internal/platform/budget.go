package platform

import (
	"odrips/internal/sim"
)

// Budget is the calibrated Skylake-class power and latency table. Absolute
// values are anchored to every number the paper publishes: ~60 mW DRIPS
// platform power at 30 °C (Fig. 1(b)), the 18/7/9/5% component shares, 74%
// power-delivery efficiency in DRIPS (footnote 5), ~3 W active power with
// display off (Fig. 2), 200 µs entry / 300 µs exit (§7), and the §8
// break-even residencies. See DESIGN.md §5 for the derivation.
type Budget struct {
	// Power-delivery efficiency per phase.
	EffActive     float64
	EffTransition float64
	EffIdle       float64

	// Nominal draws (mW, at the component, behind the regulators).
	WakeTimerIdleMW   float64 // PMU wake monitor + main-timer toggling
	WakeTimerActiveMW float64
	PMUAonIdleMW      float64 // ungated PMU remainder + CKE drivers
	PMUAonGatedMW     float64 // ODRIPS residual (Boot SRAM periphery, FET sense)
	PMUAonGatedPCMMW  float64 // PCM drops the CKE drivers too
	PMUActiveMW       float64
	Xtal24MW          float64 // board crystal draw while on
	Xtal32MW          float64
	ChipsetAonIdleMW  float64
	ChipsetAonBusyMW  float64
	MonitorFastMW     float64 // chipset wake monitoring clocked at 24 MHz
	MonitorSlowMW     float64 // same function at 32.768 kHz (+ slow timer)
	BoardMiscIdleMW   float64 // EC and other board consumers
	BoardMiscBusyMW   float64
	TrailerSAMW       float64 // residual SA/firmware draw in hand-over waits

	// Regulator quiescent draws (mW, directly at the battery).
	VRFixedMW   float64 // always-on regulators that never shed
	VRAonIOMW   float64 // the AON IO rail's regulator (off when FET gates)
	VRSramMW    float64 // the retention rail's regulator (off when SRAMs off)
	VRPmuMW     float64 // wake/PMU rail; partially shed by WAKE-UP-OFF
	VRPmuShedMW float64 // what remains of VRPmuMW after WAKE-UP-OFF

	// Battery-level power targets used to derive the big active draws.
	C0TargetMW    map[int]float64 // per core frequency (MHz)
	EntryTargetMW float64
	ExitTargetMW  float64
	// ShallowTargetMW is the platform battery power while parked in a
	// shallow runtime-idle state (C1–C8) when LTR or TNTE forbids DRIPS.
	// Keyed by C-state index.
	ShallowTargetMW map[int]float64

	// Maintenance workload (§7): fixed cycle count, so duration scales
	// inversely with core frequency; memory rate adds a small slowdown.
	MaintenanceCycles   float64
	MaintSlowdownByMTps map[int]float64

	// Flow latencies.
	EntryFirmware    sim.Duration
	ExitFirmware     sim.Duration
	VRComputeOff     sim.Duration
	VROn             sim.Duration
	SelfRefreshEnter sim.Duration
	SelfRefreshExit  sim.Duration
	FETSlew          sim.Duration
	Xtal24Startup    sim.Duration
	PMLCycles        uint64
	BootFSMLatency   sim.Duration

	// Per-technique exit re-initialization work (PLL relock, IO retrain,
	// MEE pipeline bring-up) charged at exit power. These constants are
	// the calibrated counterpart of the paper's measured break-even
	// residencies (6.6/6.3/7.4/6.5 ms).
	ReinitWake  sim.Duration
	ReinitAONIO sim.Duration
	ReinitCtx   sim.Duration
	ReinitMRAM  sim.Duration

	// Recovery-edge constants (fault plane, DESIGN.md §10). CtxRebuild is
	// the OS context re-initialization charged when repeated restore
	// verification failures force degradation to retention SRAM; a drift
	// excursion beyond DriftRecalPPB detected by the exit flow's Step
	// cross-check triggers a recalibration costing RecalWindow.
	CtxRebuild    sim.Duration
	DriftRecalPPB int64
	RecalWindow   sim.Duration

	// LLC flush model.
	LLCBytes         int
	LLCDirtyFraction float64

	// SRAM geometry (bytes). SA + compute = the ~200 KB context budget.
	SASRAMBytes      int
	ComputeSRAMBytes int

	// eMRAM port bandwidth for the ODRIPS-MRAM variant (bytes/s).
	EMRAMPortBW float64

	// DRAMActiveRefMW is the reference (DDR3L-1600) active-standby draw
	// used when backing compute draws out of the battery targets, so that
	// real DRAM-rate scaling shows through in the totals instead of being
	// re-absorbed by the derivation.
	DRAMActiveRefMW float64

	// ProcessLeakageScale multiplies the draws pushed by self-reporting
	// leakage components (retention SRAMs, AON IO ring), which compute
	// Skylake-process values internally. 1.0 for Skylake; the Haswell
	// budget sets the 22 nm factor.
	ProcessLeakageScale float64
}

// llcDirtyFraction is the fraction of the LLC flushed at entry, shared by
// both generations' budgets (Haswell inherits it from Skylake).
const llcDirtyFraction = 0.10

// Skylake returns the calibrated budget.
func Skylake() Budget {
	return Budget{
		EffActive:     0.85,
		EffTransition: 0.80,
		EffIdle:       0.74,

		WakeTimerIdleMW:   0.444,
		WakeTimerActiveMW: 0.5,
		PMUAonIdleMW:      0.444,
		PMUAonGatedMW:     0.148,
		PMUAonGatedPCMMW:  0.050,
		PMUActiveMW:       2.0,
		Xtal24MW:          1.776,
		Xtal32MW:          0.111,
		ChipsetAonIdleMW:  7.03,
		ChipsetAonBusyMW:  150,
		MonitorFastMW:     0.962,
		MonitorSlowMW:     0.037,
		BoardMiscIdleMW:   7.215,
		BoardMiscBusyMW:   30,
		TrailerSAMW:       70,

		VRFixedMW:   6.85,
		VRAonIOMW:   1.2,
		VRSramMW:    0.6,
		VRPmuMW:     0.65,
		VRPmuShedMW: 0.15,

		C0TargetMW:    map[int]float64{800: 3000, 1000: 3535, 1500: 5795},
		EntryTargetMW: 1000,
		ExitTargetMW:  1500,
		ShallowTargetMW: map[int]float64{
			1: 1500, 3: 900, 6: 500, 7: 350, 8: 200,
		},

		MaintenanceCycles:   1.2e8,
		MaintSlowdownByMTps: map[int]float64{1600: 1.0, 1067: 1.010, 800: 1.020},

		EntryFirmware:    120 * sim.Microsecond,
		ExitFirmware:     100 * sim.Microsecond,
		VRComputeOff:     20 * sim.Microsecond,
		VROn:             150 * sim.Microsecond,
		SelfRefreshEnter: 2 * sim.Microsecond,
		SelfRefreshExit:  5 * sim.Microsecond,
		FETSlew:          5 * sim.Microsecond,
		Xtal24Startup:    10 * sim.Microsecond,
		PMLCycles:        16,
		BootFSMLatency:   2 * sim.Microsecond,

		ReinitWake:  17 * sim.Microsecond,
		ReinitAONIO: 20 * sim.Microsecond,
		ReinitCtx:   10 * sim.Microsecond,
		ReinitMRAM:  3 * sim.Microsecond,

		CtxRebuild:    250 * sim.Microsecond,
		DriftRecalPPB: 20_000,
		RecalWindow:   500 * sim.Microsecond,

		LLCBytes:         3 << 20,
		LLCDirtyFraction: llcDirtyFraction,

		SASRAMBytes:      120 << 10,
		ComputeSRAMBytes: 81 << 10,

		EMRAMPortBW: 24e9,

		DRAMActiveRefMW: 280,

		ProcessLeakageScale: 1.0,
	}
}

// sumFixedActiveMW adds the delivered draws that are independent of the
// compute load in a given phase; used to back out the compute draw from
// the battery-level target.
func (b Budget) computeDrawForTarget(targetBatteryMW, eff float64, otherDeliveredMW, directMW float64) float64 {
	nominal := (targetBatteryMW-directMW)*eff - otherDeliveredMW
	if nominal < 0 {
		return 0
	}
	return nominal
}
