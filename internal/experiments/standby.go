package experiments

import (
	"fmt"

	"odrips/internal/platform"
	"odrips/internal/report"
	"odrips/internal/sim"
)

// StandbyRow compares one standby mode.
type StandbyRow struct {
	Mode         string
	FloorMW      float64 // power while resident in the mode's idle state
	AvgMW        float64 // average over an hour of standby
	WakeLatency  sim.Duration
	Connectivity string
}

// StandbyComparison reproduces the §9 distinction between legacy ACPI
// suspend (S3) and connected standby: S3 draws less but is deaf — no
// timers, no network, and a resume that takes hundreds of milliseconds —
// while DRIPS/ODRIPS keep the device reachable at microsecond-scale exit
// latencies.
type StandbyComparison struct {
	Rows []StandbyRow
}

// Standby measures the comparison.
func (rt *Runtime) Standby() (*StandbyComparison, error) {
	out := &StandbyComparison{}

	// Connected-standby modes: an hour of the standard workload.
	for _, cfg := range []platform.Config{
		platform.DefaultConfig(),
		platform.ODRIPSConfig(),
	} {
		res, err := rt.runConfig(cfg, defaultCycles)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, StandbyRow{
			Mode:         cfg.Name() + " (connected standby)",
			FloorMW:      res.IdlePowerMW(),
			AvgMW:        res.AvgPowerMW,
			WakeLatency:  res.ExitAvg,
			Connectivity: "full (timers, network, thermal)",
		})
	}

	// S3: one long suspend; the device does no kernel maintenance because
	// it cannot wake itself.
	p, err := rt.NewPlatform(platform.DefaultConfig())
	if err != nil {
		return nil, err
	}
	s3, err := p.RunS3Cycle(sim.Hour)
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, StandbyRow{
		Mode:         "ACPI S3 (suspend to RAM)",
		FloorMW:      s3.SuspendPowerMW,
		AvgMW:        s3.AvgPowerMW,
		WakeLatency:  s3.ResumeLatency,
		Connectivity: "none (user wake only)",
	})
	return out, nil
}

// Table renders the comparison.
func (r *StandbyComparison) Table() *report.Table {
	t := report.NewTable("§9 — Connected standby vs. legacy suspend",
		"Mode", "Idle floor", "Avg (1 h standby)", "Wake latency", "Connectivity")
	for _, row := range r.Rows {
		t.AddRow(row.Mode,
			fmt.Sprintf("%.1f mW", row.FloorMW),
			fmt.Sprintf("%.1f mW", row.AvgMW),
			row.WakeLatency.String(),
			row.Connectivity)
	}
	t.AddNote("S3 is cheaper but deaf; ODRIPS closes most of the gap while staying connected")
	return t
}
