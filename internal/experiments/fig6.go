package experiments

import (
	"fmt"

	"odrips/internal/dram"
	"odrips/internal/platform"
	"odrips/internal/power"
	"odrips/internal/report"
	"odrips/internal/sim"
)

// ConfigResult is one bar of a Fig. 6 chart.
type ConfigResult struct {
	Name         string
	AvgMW        float64
	ReductionPct float64      // vs. the baseline bar
	BreakEven    sim.Duration // analytic, from measured cycle energies
	SweepBE      sim.Duration // empirical, from the residency sweep (0 if skipped)
	IdleMW       float64
}

// Fig6aResult reproduces Fig. 6(a): average power and break-even residency
// for each technique and for ODRIPS.
type Fig6aResult struct {
	Rows []ConfigResult
}

// fig6aConfigs returns the paper's five bars.
func fig6aConfigs() []platform.Config {
	base := platform.DefaultConfig()
	return []platform.Config{
		base,
		base.WithTechniques(platform.WakeUpOff),
		base.WithTechniques(platform.WakeUpOff | platform.AONIOGate),
		base.WithTechniques(platform.CtxSGXDRAM),
		base.WithTechniques(platform.ODRIPS),
	}
}

// Fig6a measures the five configurations, fanning the platform runs across
// the worker pool. When sweep.Enabled, break-even points are additionally
// measured empirically via the residency sweep (each sweep parallel over
// its grid; its baseline half is memoized across rows).
func (rt *Runtime) Fig6a(sweep SweepOptions) (*Fig6aResult, error) {
	rows, err := rt.compareConfigs("fig6a", fig6aConfigs(), sweep)
	if err != nil {
		return nil, err
	}
	return &Fig6aResult{Rows: rows}, nil
}

// compareConfigs measures configs in parallel and reports each against
// the first: its reduction, its analytic break-even and, when
// sweep.Enabled, its empirical sweep break-even.
func (rt *Runtime) compareConfigs(fig string, configs []platform.Config, sweep SweepOptions) ([]ConfigResult, error) {
	if err := sweep.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", fig, err)
	}
	results, err := RunPoints(rt, len(configs),
		func(i int) string { return configs[i].Name() },
		func(i int) (platform.Result, error) { return rt.runConfig(configs[i], defaultCycles) })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", fig, err)
	}
	rows := make([]ConfigResult, len(configs))
	base := results[0]
	for i, cfg := range configs {
		res := results[i]
		rows[i] = ConfigResult{Name: cfg.Name(), AvgMW: res.AvgPowerMW, IdleMW: res.IdlePowerMW()}
		if i == 0 {
			continue
		}
		rows[i].ReductionPct = 100 * (base.AvgPowerMW - res.AvgPowerMW) / base.AvgPowerMW
		if rows[i].BreakEven, err = power.BreakEven(base.CycleEnergy, res.CycleEnergy); err != nil {
			return nil, fmt.Errorf("%s %s break-even: %w", fig, cfg.Name(), err)
		}
		if sweep.Enabled {
			sbe, ok, err := rt.SweepBreakEven(configs[0], cfg, sweep)
			if err != nil {
				return nil, err
			}
			if ok {
				rows[i].SweepBE = sbe
			}
		}
	}
	return rows, nil
}

// Table renders Fig. 6(a).
func (r *Fig6aResult) Table() *report.Table {
	t := report.NewTable(
		"Fig. 6(a) — Average power and energy break-even point",
		"Configuration", "Avg (mW)", "Reduction", "Break-even", "Sweep BE")
	for _, row := range r.Rows {
		red, be, sbe := "—", "—", "—"
		if row.ReductionPct != 0 {
			red = fmt.Sprintf("-%.1f%%", row.ReductionPct)
			be = fmt.Sprintf("%.2f ms", row.BreakEven.Milliseconds())
			if row.SweepBE > 0 {
				sbe = fmt.Sprintf("%.2f ms", row.SweepBE.Milliseconds())
			}
		}
		t.AddRow(row.Name, fmt.Sprintf("%.2f", row.AvgMW), red, be, sbe)
	}
	t.AddNote("paper: -6%%, -13%%, -8%%, -22%%; break-evens 6.6, 6.3, 7.4, 6.5 ms")
	return t
}

// Chart renders the bars.
func (r *Fig6aResult) Chart() *report.Series {
	s := &report.Series{Title: "Fig. 6(a) average power", YLabel: "mW"}
	for i, row := range r.Rows {
		s.Add(float64(i), row.AvgMW, row.Name)
	}
	return s
}

// Fig6bResult reproduces Fig. 6(b): ODRIPS under core-frequency scaling.
type Fig6bResult struct {
	Rows []ConfigResult // Name carries the frequency label
}

// Fig6b sweeps the maintenance core frequency (race-to-sleep study, §8.1),
// with the three frequency points evaluated in parallel.
func (rt *Runtime) Fig6b() (*Fig6bResult, error) {
	freqs := []int{800, 1000, 1500}
	rows, _, err := rt.odripsVariants("fig6b", len(freqs),
		func(i int) string { return fmt.Sprintf("ODRIPS @ %.1f GHz", float64(freqs[i])/1000) },
		func(i int, cfg *platform.Config) { cfg.CoreFreqMHz = freqs[i] })
	if err != nil {
		return nil, err
	}
	return &Fig6bResult{Rows: rows}, nil
}

// odripsVariants measures n ODRIPS platforms in parallel, row i with
// vary(i) applied, and reports each row's power reduction against the
// first. It returns the raw results too, for per-row columns.
func (rt *Runtime) odripsVariants(fig string, n int, name func(int) string, vary func(int, *platform.Config)) ([]ConfigResult, []platform.Result, error) {
	results, err := RunPoints(rt, n, name,
		func(i int) (platform.Result, error) {
			cfg := platform.ODRIPSConfig()
			vary(i, &cfg)
			return rt.runConfig(cfg, defaultCycles)
		})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", fig, err)
	}
	rows := make([]ConfigResult, n)
	base := results[0].AvgPowerMW
	for i, res := range results {
		rows[i] = ConfigResult{Name: name(i), AvgMW: res.AvgPowerMW, IdleMW: res.IdlePowerMW()}
		if i > 0 {
			rows[i].ReductionPct = 100 * (base - res.AvgPowerMW) / base
		}
	}
	return rows, results, nil
}

// Table renders Fig. 6(b).
func (r *Fig6bResult) Table() *report.Table {
	t := report.NewTable(
		"Fig. 6(b) — ODRIPS under core-frequency scaling",
		"Configuration", "Avg (mW)", "Δ vs 0.8 GHz")
	for _, row := range r.Rows {
		d := "—"
		if row.ReductionPct != 0 {
			d = fmt.Sprintf("%+.2f%%", -row.ReductionPct)
		}
		t.AddRow(row.Name, fmt.Sprintf("%.2f", row.AvgMW), d)
	}
	t.AddNote("paper: 1.0 GHz saves ~1.4%%; 1.5 GHz costs ~1%%")
	return t
}

// Fig6cResult reproduces Fig. 6(c): ODRIPS under DRAM-frequency scaling.
type Fig6cResult struct {
	Rows    []ConfigResult
	CtxSave []sim.Duration // context save latency per rate
}

// Fig6c sweeps the DRAM transfer rate (§8.2), with the three rate points
// evaluated in parallel.
func (rt *Runtime) Fig6c() (*Fig6cResult, error) {
	rates := []int{1600, 1067, 800}
	rows, results, err := rt.odripsVariants("fig6c", len(rates),
		func(i int) string { return fmt.Sprintf("ODRIPS, DDR3L-%d", rates[i]) },
		func(i int, cfg *platform.Config) { cfg.DRAMMTps = rates[i] })
	if err != nil {
		return nil, err
	}
	out := &Fig6cResult{Rows: rows}
	for _, res := range results {
		out.CtxSave = append(out.CtxSave, res.CtxSave)
	}
	return out, nil
}

// Table renders Fig. 6(c).
func (r *Fig6cResult) Table() *report.Table {
	t := report.NewTable(
		"Fig. 6(c) — ODRIPS under DRAM-frequency scaling",
		"Configuration", "Avg (mW)", "Δ vs 1600 MT/s", "Ctx save")
	for i, row := range r.Rows {
		d := "—"
		if row.ReductionPct != 0 {
			d = fmt.Sprintf("-%.2f%%", row.ReductionPct)
		}
		t.AddRow(row.Name, fmt.Sprintf("%.2f", row.AvgMW), d,
			fmt.Sprintf("%.1f us", r.CtxSave[i].Microseconds()))
	}
	t.AddNote("paper: -0.3%% at 1.067 GHz, -0.7%% at 0.8 GHz; longer context transfers")
	return t
}

// Fig6dResult reproduces Fig. 6(d): ODRIPS with emerging memories.
type Fig6dResult struct {
	Rows []ConfigResult
}

// Fig6d measures baseline, ODRIPS, ODRIPS-MRAM, and ODRIPS-PCM (§8.3).
func (rt *Runtime) Fig6d(sweep SweepOptions) (*Fig6dResult, error) {
	base := platform.DefaultConfig()
	mram := base.WithTechniques(platform.WakeUpOff | platform.AONIOGate)
	mram.CtxInEMRAM = true
	pcm := platform.ODRIPSConfig()
	pcm.MainMemory = dram.PCM

	rows, err := rt.compareConfigs("fig6d", []platform.Config{base, platform.ODRIPSConfig(), mram, pcm}, sweep)
	if err != nil {
		return nil, err
	}
	return &Fig6dResult{Rows: rows}, nil
}

// Table renders Fig. 6(d).
func (r *Fig6dResult) Table() *report.Table {
	t := report.NewTable(
		"Fig. 6(d) — ODRIPS with emerging memory technologies",
		"Configuration", "Avg (mW)", "Reduction", "Break-even")
	for _, row := range r.Rows {
		red, be := "—", "—"
		if row.ReductionPct != 0 {
			red = fmt.Sprintf("-%.1f%%", row.ReductionPct)
			be = fmt.Sprintf("%.2f ms", row.BreakEven.Milliseconds())
		}
		t.AddRow(row.Name, fmt.Sprintf("%.2f", row.AvgMW), red, be)
	}
	t.AddNote("paper: ODRIPS-MRAM slightly below ODRIPS with the lowest break-even; ODRIPS-PCM -37%%")
	return t
}
