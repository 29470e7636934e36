package experiments

import (
	"strings"
	"testing"

	"odrips/internal/platform"
	"odrips/internal/sim"
	"odrips/internal/workload"
)

// The clean row is the sweep's self-check: an empty plan must reproduce
// the ordinary ODRIPS run exactly, and every recovery edge must fire in
// its scenario.
func TestFaultSweep(t *testing.T) {
	r, err := Default().FaultSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(faultSweepScenarios) {
		t.Fatalf("rows = %d, want %d", len(r.Rows), len(faultSweepScenarios))
	}

	p, err := platform.New(platform.ODRIPSConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunCycles(workload.Fixed(defaultCycles, 0, 30*sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	clean := r.Rows[0]
	if clean.Scenario != "clean" || clean.Plan != "" {
		t.Fatalf("row 0 = %q plan %q, want the clean scenario", clean.Scenario, clean.Plan)
	}
	if clean.AvgMW != res.AvgPowerMW {
		t.Errorf("clean row %.9f mW differs from plane-free run %.9f mW", clean.AvgMW, res.AvgPowerMW)
	}
	if clean.DeltaUW != 0 {
		t.Errorf("clean row overhead = %f uW, want 0", clean.DeltaUW)
	}

	for _, row := range r.Rows[1:] {
		if row.Stats.Fired == 0 {
			t.Errorf("%s: plan %q never fired", row.Scenario, row.Plan)
		}
		edges := row.Stats.EntryAborts + row.Stats.MEERetries + row.Stats.Degradations +
			row.Stats.Recalibrations + row.Stats.FETRetries
		if edges == 0 && !strings.Contains(row.Scenario, "exit") {
			t.Errorf("%s: no recovery edge exercised (stats %+v)", row.Scenario, row.Stats)
		}
		if strings.HasPrefix(row.Scenario, "abort") && row.DeltaUW <= 0 {
			t.Errorf("%s: abort overhead %.2f uW, want > 0", row.Scenario, row.DeltaUW)
		}
		if strings.HasPrefix(row.Scenario, "degrade") && row.DeltaUW < 1000 {
			t.Errorf("%s: degradation overhead %.2f uW, want >= 1 mW", row.Scenario, row.DeltaUW)
		}
	}

	var sb strings.Builder
	r.Table().Render(&sb)
	if !strings.Contains(sb.String(), "degradations 1") {
		t.Errorf("rendered table missing recovery summary:\n%s", sb.String())
	}
}
