package experiments

import (
	"fmt"

	"odrips/internal/platform"
	"odrips/internal/report"
	"odrips/internal/sim"
	"odrips/internal/workload"
)

// TransitionBudgetRow is one step of an entry or exit flow.
type TransitionBudgetRow struct {
	Flow     string
	Step     string
	Duration sim.Duration
	EnergyUJ float64
}

// TransitionBudget decomposes one ODRIPS entry+exit into its firmware
// steps with latency and battery energy — the anatomy behind the ~110 µJ
// transition-energy delta that sets the 6.5 ms break-even residency.
type TransitionBudget struct {
	Rows         []TransitionBudgetRow
	EntryTotalUJ float64
	ExitTotalUJ  float64
}

// TransitionAnatomy runs one cycle per configuration and reports the step
// budget for the given technique set.
func (rt *Runtime) TransitionAnatomy(tech platform.Technique) (*TransitionBudget, error) {
	cfg := platform.DefaultConfig().WithTechniques(tech)
	p, err := rt.NewPlatform(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := p.RunCycles(workload.Fixed(1, 0, 5*sim.Second)); err != nil {
		return nil, err
	}
	out := &TransitionBudget{}
	for _, fs := range p.FlowTrace() {
		out.Rows = append(out.Rows, TransitionBudgetRow{
			Flow:     fs.Flow,
			Step:     fs.Step,
			Duration: fs.Duration,
			EnergyUJ: fs.EnergyUJ,
		})
		switch fs.Flow {
		case "entry":
			out.EntryTotalUJ += fs.EnergyUJ
		case "exit":
			out.ExitTotalUJ += fs.EnergyUJ
		}
	}
	return out, nil
}

// Table renders the budget.
func (r *TransitionBudget) Table(name string) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Transition anatomy — %s entry/exit step budget", name),
		"Flow", "Step", "Latency", "Energy")
	for _, row := range r.Rows {
		t.AddRow(row.Flow, row.Step, row.Duration.String(),
			fmt.Sprintf("%.1f uJ", row.EnergyUJ))
	}
	t.AddRow("", "entry total", "", fmt.Sprintf("%.1f uJ", r.EntryTotalUJ))
	t.AddRow("", "exit total", "", fmt.Sprintf("%.1f uJ", r.ExitTotalUJ))
	return t
}
