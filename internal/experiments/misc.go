package experiments

import (
	"fmt"

	"odrips/internal/clock"
	"odrips/internal/ctxstore"
	"odrips/internal/dram"
	"odrips/internal/platform"
	"odrips/internal/report"
	"odrips/internal/sim"
	"odrips/internal/timer"
	"odrips/internal/workload"
)

// Table1 renders the paper's Table 1 system parameters as realized by the
// simulation.
func Table1() *report.Table {
	cfg := platform.DefaultConfig()
	bud := platform.Skylake()
	t := report.NewTable("Table 1 — Baseline and target system parameters", "Parameter", "Value")
	t.AddRow("Processor (modeled)", "Skylake-class client, 14 nm")
	t.AddRow("Core frequency (maintenance)", fmt.Sprintf("%d MHz (800–2400 supported band)", cfg.CoreFreqMHz))
	t.AddRow("L3 cache (LLC)", fmt.Sprintf("%d MB", bud.LLCBytes>>20))
	t.AddRow("TDP class", "15 W (U-series)")
	t.AddRow("Chipset (modeled)", "Sunrise Point-LP-class wake hub")
	t.AddRow("Memory", fmt.Sprintf("DDR3L-%d, dual channel, non-ECC", cfg.DRAMMTps))
	t.AddRow("Memory capacity", "8 GB")
	t.AddRow("Fast crystal", "24 MHz (board XTAL)")
	t.AddRow("RTC crystal", "32.768 kHz (board XTAL)")
	t.AddRow("Processor context", fmt.Sprintf("%d KB + %d B boot image",
		ctxstore.SkylakeSize()>>10, ctxstore.BootImageSize))
	t.AddRow("PD efficiency (DRIPS)", fmt.Sprintf("%.0f%%", bud.EffIdle*100))
	return t
}

// CalibrationResult reproduces §4.1.3: the Step geometry and precision.
type CalibrationResult struct {
	IntBits, FracBits uint
	NSlow, NFast      uint64
	Window            sim.Duration
	Step              float64
	DriftPPB          float64
	MeasuredDriftPPB  float64 // from a full ODRIPS run
}

// Calibration runs the Step calibration on the standard crystal pair and
// measures actual end-to-end timer drift across ODRIPS cycles.
func (rt *Runtime) Calibration() (*CalibrationResult, error) {
	s := sim.NewScheduler()
	fast := clock.NewOscillator(s, "xtal24", 24_000_000, 2_300, 0)
	slow := clock.NewOscillator(s, "xtal32", 32_768, -4_100, 0)
	fast.PowerOn()
	slow.PowerOn()
	res, err := timer.CalibrateNow(s, fast, slow)
	if err != nil {
		return nil, err
	}
	out := &CalibrationResult{
		IntBits:  res.IntBits,
		FracBits: res.FracBits,
		NSlow:    res.NSlow,
		NFast:    res.NFast,
		Window:   res.Window,
		//odrips:allow fpfloat Step here only feeds the §4.1.3 report table; the run's timer math stays in fixed point
		Step:     res.Step.Float(),
		DriftPPB: res.DriftPPB(),
	}
	run, err := rt.runConfig(platform.ODRIPSConfig(), defaultCycles)
	if err != nil {
		return nil, err
	}
	out.MeasuredDriftPPB = run.TimerDriftPPB
	return out, nil
}

// Table renders the calibration result.
func (r *CalibrationResult) Table() *report.Table {
	t := report.NewTable("§4.1.3 — Step calibration and timer precision", "Quantity", "Value")
	t.AddRow("Integer bits m", fmt.Sprintf("%d (paper: 10)", r.IntBits))
	t.AddRow("Fractional bits f", fmt.Sprintf("%d (paper: 21)", r.FracBits))
	t.AddRow("Calibration window N_slow", fmt.Sprintf("2^%d = %d slow cycles", r.FracBits, r.NSlow))
	t.AddRow("Window wall time", r.Window.String())
	t.AddRow("Counted N_fast", fmt.Sprintf("%d", r.NFast))
	t.AddRow("Step", fmt.Sprintf("%.9f", r.Step))
	t.AddRow("Quantization drift bound", fmt.Sprintf("%.3f ppb (target: 1 ppb)", r.DriftPPB))
	t.AddRow("Measured end-to-end drift", fmt.Sprintf("%.3f ppb across ODRIPS cycles", r.MeasuredDriftPPB))
	return t
}

// CtxLatencyResult reproduces §6.3: context save/restore latencies per
// storage medium.
type CtxLatencyResult struct {
	Rows []CtxLatencyRow
}

// CtxLatencyRow is one storage medium.
type CtxLatencyRow struct {
	Medium  string
	Save    sim.Duration
	Restore sim.Duration
}

// CtxLatency measures the context transfer for protected DRAM (ODRIPS),
// on-chip eMRAM, PCM main memory, and the baseline SRAM path.
func (rt *Runtime) CtxLatency() (*CtxLatencyResult, error) {
	out := &CtxLatencyResult{}
	add := func(name string, cfg platform.Config) error {
		res, err := rt.runConfig(cfg, 2)
		if err != nil {
			return fmt.Errorf("ctx latency %s: %w", name, err)
		}
		out.Rows = append(out.Rows, CtxLatencyRow{Medium: name, Save: res.CtxSave, Restore: res.CtxRestore})
		return nil
	}
	if err := add("S/R SRAM (baseline)", platform.DefaultConfig()); err != nil {
		return nil, err
	}
	if err := add("SGX DRAM (ODRIPS)", platform.ODRIPSConfig()); err != nil {
		return nil, err
	}
	mram := platform.DefaultConfig().WithTechniques(platform.WakeUpOff | platform.AONIOGate)
	mram.CtxInEMRAM = true
	if err := add("eMRAM (ODRIPS-MRAM)", mram); err != nil {
		return nil, err
	}
	pcm := platform.ODRIPSConfig()
	pcm.MainMemory = dram.PCM
	if err := add("PCM (ODRIPS-PCM)", pcm); err != nil {
		return nil, err
	}
	return out, nil
}

// Table renders the latencies.
func (r *CtxLatencyResult) Table() *report.Table {
	t := report.NewTable("§6.3 — Context save/restore latency (~200 KB)",
		"Medium", "Save", "Restore")
	for _, row := range r.Rows {
		t.AddRow(row.Medium,
			fmt.Sprintf("%.1f us", row.Save.Microseconds()),
			fmt.Sprintf("%.1f us", row.Restore.Microseconds()))
	}
	t.AddNote("paper (SGX DRAM): ~18 us save, ~13 us restore, 95%% estimation accuracy")
	return t
}

// ValidationRow is one configuration of the model-validation experiment.
type ValidationRow struct {
	Name         string
	PredictedMW  float64
	MeasuredMW   float64
	AccuracyPct  float64
	IdlePredMW   float64
	IdleMeasMW   float64
	IdleAccuracy float64
}

// ValidationResult reproduces §7's power-model validation: the analytic
// Equation-1 model against the simulated measurement.
type ValidationResult struct {
	Rows        []ValidationRow
	WorstAccPct float64
}

// ModelValidation evaluates every Fig. 6(a) configuration plus the
// emerging-memory variants of Fig. 6(d).
func (rt *Runtime) ModelValidation() (*ValidationResult, error) {
	out := &ValidationResult{WorstAccPct: 100}
	configs := fig6aConfigs()
	mram := platform.DefaultConfig().WithTechniques(platform.WakeUpOff | platform.AONIOGate)
	mram.CtxInEMRAM = true
	pcm := platform.ODRIPSConfig()
	pcm.MainMemory = dram.PCM
	configs = append(configs, mram, pcm)
	for _, cfg := range configs {
		p, err := rt.NewPlatform(cfg)
		if err != nil {
			return nil, err
		}
		prof, err := p.AnalyticProfile(30 * sim.Second)
		if err != nil {
			return nil, err
		}
		idlePred := p.AnalyticIdleMW()
		res, err := p.RunCycles(workload.Fixed(defaultCycles, 0, 30*sim.Second))
		if err != nil {
			return nil, err
		}
		row := ValidationRow{
			Name:        cfg.Name(),
			PredictedMW: prof.AverageMW(),
			MeasuredMW:  res.AvgPowerMW,
			IdlePredMW:  idlePred,
			IdleMeasMW:  res.IdlePowerMW(),
		}
		row.AccuracyPct = 100 * (1 - abs(row.PredictedMW-row.MeasuredMW)/row.MeasuredMW)
		row.IdleAccuracy = 100 * (1 - abs(row.IdlePredMW-row.IdleMeasMW)/row.IdleMeasMW)
		if row.AccuracyPct < out.WorstAccPct {
			out.WorstAccPct = row.AccuracyPct
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Table renders the validation.
func (r *ValidationResult) Table() *report.Table {
	t := report.NewTable("§7 — Power-model validation (Equation 1 vs. measurement)",
		"Configuration", "Model (mW)", "Measured (mW)", "Accuracy", "Idle model", "Idle meas.", "Idle acc.")
	for _, row := range r.Rows {
		t.AddRow(row.Name,
			fmt.Sprintf("%.2f", row.PredictedMW),
			fmt.Sprintf("%.2f", row.MeasuredMW),
			fmt.Sprintf("%.1f%%", row.AccuracyPct),
			fmt.Sprintf("%.2f", row.IdlePredMW),
			fmt.Sprintf("%.2f", row.IdleMeasMW),
			fmt.Sprintf("%.1f%%", row.IdleAccuracy))
	}
	t.AddNote("paper reports ~95%% model accuracy; worst configuration here: %.1f%%", r.WorstAccPct)
	return t
}
