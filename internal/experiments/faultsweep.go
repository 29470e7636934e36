package experiments

import (
	"fmt"

	"odrips/internal/faults"
	"odrips/internal/platform"
	"odrips/internal/report"
	"odrips/internal/sim"
	"odrips/internal/workload"
)

// FaultSweepRow is one fault scenario measured against the clean run.
type FaultSweepRow struct {
	Scenario string
	Plan     string
	AvgMW    float64
	DeltaUW  float64 // average-power overhead vs. the clean run, in uW
	Stats    platform.FaultStats
}

// FaultSweepReport measures the energy cost of every recovery edge the
// fault plane can exercise: aborted entries at increasing depth, context
// restore retry and degradation, drift recalibration, and FET re-drive.
// The clean row doubles as a self-check — its plan is empty, so its
// numbers must equal the ordinary ODRIPS headline run.
type FaultSweepReport struct {
	Rows []FaultSweepRow
}

// faultSweepScenarios is the fixed scenario list: deterministic order,
// deterministic plans.
var faultSweepScenarios = []struct {
	name string
	plan string
}{
	{"clean", ""},
	{"abort @ firmware", "wake@1.0"},
	{"abort @ ctx saved", "wake@1.3"},
	{"abort @ timer migrated", "wake@1.6"},
	{"wake during exit", "wakex@1.2"},
	{"restore retry (transient)", "meefail@1"},
	{"degrade (persistent)", "meefail@1:1"},
	{"degrade (retention bit flip)", "bitflip@1:12345"},
	{"drift recalibration", "drift@1:1000000"},
	{"FET re-drive", "fetglitch@1"},
}

// FaultSweep measures the scenario list, fanning points across the worker
// pool like every other experiment.
func (rt *Runtime) FaultSweep() (*FaultSweepReport, error) {
	specs := make([]PointSpec[FaultSweepRow], len(faultSweepScenarios))
	for i, sc := range faultSweepScenarios {
		sc := sc
		specs[i] = PointSpec[FaultSweepRow]{
			Label: sc.name,
			Run: func() (FaultSweepRow, error) {
				plan, err := faults.Parse(sc.plan)
				if err != nil {
					return FaultSweepRow{}, err
				}
				p, err := rt.NewPlatform(platform.ODRIPSConfig())
				if err != nil {
					return FaultSweepRow{}, err
				}
				if err := p.InjectFaults(plan); err != nil {
					return FaultSweepRow{}, err
				}
				res, err := p.RunCycles(workload.Fixed(defaultCycles, 0, 30*sim.Second))
				if err != nil {
					return FaultSweepRow{}, err
				}
				return FaultSweepRow{
					Scenario: sc.name,
					Plan:     sc.plan,
					AvgMW:    res.AvgPowerMW,
					Stats:    res.Faults,
				}, nil
			},
		}
	}
	results, err := RunPoints(specs, rt.Pool(0))
	if err != nil {
		return nil, err
	}
	out := &FaultSweepReport{Rows: make([]FaultSweepRow, len(results))}
	for i, r := range results {
		out.Rows[i] = r.Value
	}
	clean := out.Rows[0].AvgMW
	for i := range out.Rows {
		out.Rows[i].DeltaUW = (out.Rows[i].AvgMW - clean) * 1e3
	}
	return out, nil
}

// Table renders the sweep.
func (r *FaultSweepReport) Table() *report.Table {
	t := report.NewTable("Fault sweep — recovery-edge energy overheads (ODRIPS, 3x30s cycles)",
		"Scenario", "Plan", "Avg power", "Overhead", "Recovery")
	for _, row := range r.Rows {
		recovery := "-"
		if s := row.Stats; s.Fired > 0 || s.Skipped > 0 {
			recovery = fmt.Sprintf("aborts %d (%.0f uJ wasted), retries %d, degradations %d, recals %d, fet %d",
				s.EntryAborts, s.AbortWastedUJ, s.MEERetries, s.Degradations,
				s.Recalibrations, s.FETRetries)
		}
		t.AddRow(row.Scenario,
			row.Plan,
			fmt.Sprintf("%.3f mW", row.AvgMW),
			fmt.Sprintf("%+.1f uW", row.DeltaUW),
			recovery)
	}
	t.AddNote("overhead vs. the clean row; aborted entries retry the full idle window, degradation persists for the rest of the run")
	return t
}
