package experiments

import (
	"fmt"
	"sort"

	"odrips/internal/platform"
	"odrips/internal/power"
	"odrips/internal/report"
	"odrips/internal/sim"
)

// ScalingRow is one component group of the §7 process-scaling projection.
type ScalingRow struct {
	Component   string
	HaswellMW   float64 // measured on the 22 nm platform
	Factor      float64 // 22 nm → 14 nm divisor
	ProjectedMW float64
	SkylakeMW   float64 // measured directly on the 14 nm platform
}

// ScalingResult reproduces the paper's power-model construction (§7,
// steps 1–2): measure the previous-generation Haswell-ULT platform in
// DRIPS, scale each component by its process factor, and validate the
// projection against the direct Skylake measurement.
type ScalingResult struct {
	Rows             []ScalingRow
	HaswellTotalMW   float64
	ProjectedTotalMW float64
	SkylakeTotalMW   float64
	AccuracyPct      float64
	HaswellExitAvg   sim.Duration
	SkylakeExitAvg   sim.Duration
}

// ProcessScaling runs both generations (in parallel) and builds the
// projection.
func (rt *Runtime) ProcessScaling() (*ScalingResult, error) {
	hswCfg := platform.DefaultConfig()
	hswCfg.Generation = platform.GenHaswell
	configs := []platform.Config{hswCfg, platform.DefaultConfig()}
	results, err := RunPoints(rt, len(configs),
		func(i int) string { return configs[i].Name() },
		func(i int) (platform.Result, error) { return rt.runConfig(configs[i], defaultCycles) })
	if err != nil {
		return nil, fmt.Errorf("scaling: %w", err)
	}
	hsw, sky := results[0], results[1]

	idleMW := func(res platform.Result, name string) float64 {
		sec := res.Residency[power.Idle] * res.Duration.Seconds()
		if sec <= 0 {
			return 0
		}
		return res.IdleByComponent[name] * 1e3 / sec
	}
	names := make([]string, 0, len(hsw.IdleByComponent))
	for name := range hsw.IdleByComponent {
		names = append(names, name)
	}
	sort.Strings(names)

	out := &ScalingResult{
		HaswellExitAvg: hsw.ExitAvg,
		SkylakeExitAvg: sky.ExitAvg,
	}
	for _, name := range names {
		h := idleMW(hsw, name)
		s := idleMW(sky, name)
		f := platform.ComponentScaleTo14nm(name)
		row := ScalingRow{
			Component:   name,
			HaswellMW:   h,
			Factor:      f,
			ProjectedMW: h / f,
			SkylakeMW:   s,
		}
		out.Rows = append(out.Rows, row)
		out.HaswellTotalMW += h
		out.ProjectedTotalMW += row.ProjectedMW
		out.SkylakeTotalMW += s
	}
	if out.SkylakeTotalMW > 0 {
		out.AccuracyPct = 100 * (1 - abs(out.ProjectedTotalMW-out.SkylakeTotalMW)/out.SkylakeTotalMW)
	}

	return out, nil
}

// Table renders the projection.
func (r *ScalingResult) Table() *report.Table {
	t := report.NewTable("§7 — Process scaling: Haswell-ULT (22 nm) measurement → Skylake (14 nm) projection",
		"Component", "Haswell (mW)", "Factor", "Projected (mW)", "Skylake (mW)")
	for _, row := range r.Rows {
		if row.HaswellMW < 0.01 && row.SkylakeMW < 0.01 {
			continue
		}
		t.AddRow(row.Component,
			fmt.Sprintf("%.2f", row.HaswellMW),
			fmt.Sprintf("1/%.2f", row.Factor),
			fmt.Sprintf("%.2f", row.ProjectedMW),
			fmt.Sprintf("%.2f", row.SkylakeMW))
	}
	t.AddRow("TOTAL",
		fmt.Sprintf("%.1f", r.HaswellTotalMW), "",
		fmt.Sprintf("%.1f", r.ProjectedTotalMW),
		fmt.Sprintf("%.1f", r.SkylakeTotalMW))
	t.AddNote("projection accuracy %.1f%% (the paper validates its model at ~95%%)", r.AccuracyPct)
	t.AddNote("Haswell C10 exit %.2f ms vs Skylake %.0f us (§3: VR re-init dominates)",
		r.HaswellExitAvg.Milliseconds(), r.SkylakeExitAvg.Microseconds())
	return t
}
