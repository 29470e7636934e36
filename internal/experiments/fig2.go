package experiments

import (
	"fmt"

	"odrips/internal/platform"
	"odrips/internal/power"
	"odrips/internal/report"
)

func idleState() power.State { return power.Idle }

// Fig2Row is one state of the connected-standby profile.
type Fig2Row struct {
	State     power.State
	PowerMW   float64
	Residency float64
}

// Fig2Result reproduces Fig. 2: the four-state connected-standby profile
// and its Equation-1 average.
type Fig2Result struct {
	Rows       []Fig2Row
	AverageMW  float64 // measured
	Equation1  float64 // Σ power×residency over the measured rows
	CyclePerID string
}

// Fig2 measures the baseline connected-standby profile.
func (rt *Runtime) Fig2() (*Fig2Result, error) {
	res, err := rt.runConfig(platform.DefaultConfig(), defaultCycles)
	if err != nil {
		return nil, err
	}
	out := &Fig2Result{AverageMW: res.AvgPowerMW}
	for _, st := range power.States() {
		row := Fig2Row{State: st, PowerMW: res.StatePowerMW[st], Residency: res.Residency[st]}
		out.Rows = append(out.Rows, row)
		out.Equation1 += row.PowerMW * row.Residency
	}
	out.CyclePerID = fmt.Sprintf("%d cycles, %.1f s total", res.Cycles, res.Duration.Seconds())
	return out, nil
}

// Table renders the profile.
func (r *Fig2Result) Table() *report.Table {
	t := report.NewTable(
		"Fig. 2 — Connected-standby profile (baseline DRIPS)",
		"State", "Power (mW)", "Residency")
	for _, row := range r.Rows {
		t.AddRow(row.State.String(),
			fmt.Sprintf("%.2f", row.PowerMW),
			fmt.Sprintf("%.4f%%", 100*row.Residency))
	}
	t.AddRow("Average (Eq. 1)", fmt.Sprintf("%.2f", r.Equation1), "")
	t.AddNote("measured average %.2f mW over %s", r.AverageMW, r.CyclePerID)
	t.AddNote("paper anchors: DRIPS ~99.5%% at ~60 mW; active ~0.5%% at ~3 W")
	return t
}
