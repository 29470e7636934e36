package experiments

import (
	"fmt"

	"odrips/internal/platform"
	"odrips/internal/report"
)

// TDPRow is one product class of the TDP-sensitivity study.
type TDPRow struct {
	TDPWatts     float64
	Class        string
	BaselineMW   float64
	ODRIPSMW     float64
	ReductionPct float64
}

// TDPResult reproduces the paper's §1 claim that the proposal "is more
// critical for lower TDPs (e.g., 3.5 W to 25 W)": active power scales with
// the product class, but the always-on idle infrastructure ODRIPS attacks
// does not, so the percentage saving grows as the TDP shrinks.
type TDPResult struct {
	Rows []TDPRow
}

// TDPSensitivity measures baseline and ODRIPS average power across product
// classes.
func (rt *Runtime) TDPSensitivity() (*TDPResult, error) {
	classes := []struct {
		watts float64
		name  string
	}{
		{4.5, "Y-series handheld"},
		{15, "U-series notebook (Table 1)"},
		{28, "H-series performance laptop"},
		{45, "HK-series mobile workstation"},
	}
	out := &TDPResult{}
	for _, cl := range classes {
		base := platform.DefaultConfig()
		base.TDPWatts = cl.watts
		baseRes, err := rt.runConfig(base, 2)
		if err != nil {
			return nil, fmt.Errorf("tdp %v base: %w", cl.watts, err)
		}
		opt := platform.ODRIPSConfig()
		opt.TDPWatts = cl.watts
		optRes, err := rt.runConfig(opt, 2)
		if err != nil {
			return nil, fmt.Errorf("tdp %v odrips: %w", cl.watts, err)
		}
		out.Rows = append(out.Rows, TDPRow{
			TDPWatts:     cl.watts,
			Class:        cl.name,
			BaselineMW:   baseRes.AvgPowerMW,
			ODRIPSMW:     optRes.AvgPowerMW,
			ReductionPct: 100 * (baseRes.AvgPowerMW - optRes.AvgPowerMW) / baseRes.AvgPowerMW,
		})
	}
	return out, nil
}

// Table renders the study.
func (r *TDPResult) Table() *report.Table {
	t := report.NewTable("§1 — ODRIPS saving across TDP classes (connected standby)",
		"TDP", "Class", "Baseline", "ODRIPS", "Reduction")
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprintf("%.1f W", row.TDPWatts),
			row.Class,
			fmt.Sprintf("%.1f mW", row.BaselineMW),
			fmt.Sprintf("%.1f mW", row.ODRIPSMW),
			fmt.Sprintf("-%.1f%%", row.ReductionPct))
	}
	t.AddNote("the idle infrastructure ODRIPS removes is TDP-independent, so the")
	t.AddNote("percentage saving grows as the product class shrinks (paper §1)")
	return t
}
