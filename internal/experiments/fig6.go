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
	if err := sweep.Validate(); err != nil {
		return nil, fmt.Errorf("fig6a: %w", err)
	}
	configs := fig6aConfigs()
	results, err := runIndexed(len(configs), rt.Pool(sweep.Workers),
		func(i int) string { return configs[i].Name() },
		func(i int) (platform.Result, error) { return rt.runConfig(configs[i], defaultCycles) })
	if err != nil {
		return nil, fmt.Errorf("fig6a: %w", err)
	}
	out := &Fig6aResult{}
	base := results[0]
	for i, cfg := range configs {
		res := results[i]
		row := ConfigResult{Name: cfg.Name(), AvgMW: res.AvgPowerMW, IdleMW: res.IdlePowerMW()}
		if i > 0 {
			row.ReductionPct = 100 * (base.AvgPowerMW - res.AvgPowerMW) / base.AvgPowerMW
			be, err := power.BreakEven(base.CycleEnergy, res.CycleEnergy)
			if err != nil {
				return nil, fmt.Errorf("fig6a %s break-even: %w", cfg.Name(), err)
			}
			row.BreakEven = be
			if sweep.Enabled {
				sbe, ok, err := rt.SweepBreakEven(configs[0], cfg, sweep)
				if err != nil {
					return nil, err
				}
				if ok {
					row.SweepBE = sbe
				}
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
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
	results, err := runIndexed(len(freqs), rt.Pool(0),
		func(i int) string { return fmt.Sprintf("%d MHz", freqs[i]) },
		func(i int) (platform.Result, error) {
			cfg := platform.ODRIPSConfig()
			cfg.CoreFreqMHz = freqs[i]
			return rt.runConfig(cfg, defaultCycles)
		})
	if err != nil {
		return nil, fmt.Errorf("fig6b: %w", err)
	}
	out := &Fig6bResult{}
	base := results[0].AvgPowerMW
	for i, mhz := range freqs {
		row := ConfigResult{
			Name:   fmt.Sprintf("ODRIPS @ %.1f GHz", float64(mhz)/1000),
			AvgMW:  results[i].AvgPowerMW,
			IdleMW: results[i].IdlePowerMW(),
		}
		if i > 0 {
			row.ReductionPct = 100 * (base - results[i].AvgPowerMW) / base
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
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
	results, err := runIndexed(len(rates), rt.Pool(0),
		func(i int) string { return fmt.Sprintf("%d MT/s", rates[i]) },
		func(i int) (platform.Result, error) {
			cfg := platform.ODRIPSConfig()
			cfg.DRAMMTps = rates[i]
			return rt.runConfig(cfg, defaultCycles)
		})
	if err != nil {
		return nil, fmt.Errorf("fig6c: %w", err)
	}
	out := &Fig6cResult{}
	base := results[0].AvgPowerMW
	for i, mtps := range rates {
		row := ConfigResult{
			Name:   fmt.Sprintf("ODRIPS, DDR3L-%d", mtps),
			AvgMW:  results[i].AvgPowerMW,
			IdleMW: results[i].IdlePowerMW(),
		}
		if i > 0 {
			row.ReductionPct = 100 * (base - results[i].AvgPowerMW) / base
		}
		out.Rows = append(out.Rows, row)
		out.CtxSave = append(out.CtxSave, results[i].CtxSave)
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

	configs := []platform.Config{base, platform.ODRIPSConfig(), mram, pcm}
	if err := sweep.Validate(); err != nil {
		return nil, fmt.Errorf("fig6d: %w", err)
	}
	results, err := runIndexed(len(configs), rt.Pool(sweep.Workers),
		func(i int) string { return configs[i].Name() },
		func(i int) (platform.Result, error) { return rt.runConfig(configs[i], defaultCycles) })
	if err != nil {
		return nil, fmt.Errorf("fig6d: %w", err)
	}
	out := &Fig6dResult{}
	baseRes := results[0]
	for i, cfg := range configs {
		res := results[i]
		row := ConfigResult{Name: cfg.Name(), AvgMW: res.AvgPowerMW, IdleMW: res.IdlePowerMW()}
		if i > 0 {
			row.ReductionPct = 100 * (baseRes.AvgPowerMW - res.AvgPowerMW) / baseRes.AvgPowerMW
			be, err := power.BreakEven(baseRes.CycleEnergy, res.CycleEnergy)
			if err != nil {
				return nil, fmt.Errorf("fig6d %s break-even: %w", cfg.Name(), err)
			}
			row.BreakEven = be
			if sweep.Enabled {
				sbe, ok, err := rt.SweepBreakEven(configs[0], cfg, sweep)
				if err != nil {
					return nil, err
				}
				if ok {
					row.SweepBE = sbe
				}
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
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
