package experiments

import (
	"math"
	"testing"

	"odrips/internal/platform"
	"odrips/internal/sim"
)

func TestAblationMEECache(t *testing.T) {
	r, err := Default().AblationMEECache()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Bigger caches must never increase save traffic; hit rate must be
	// monotone non-decreasing.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].SaveBlocks > r.Rows[i-1].SaveBlocks {
			t.Errorf("save traffic grew from %d lines (%d) to %d lines (%d)",
				r.Rows[i-1].Lines, r.Rows[i-1].SaveBlocks, r.Rows[i].Lines, r.Rows[i].SaveBlocks)
		}
		if r.Rows[i].HitRatePct+0.5 < r.Rows[i-1].HitRatePct {
			t.Errorf("hit rate regressed at %d lines", r.Rows[i].Lines)
		}
	}
	// The shipped 256-line point must land on the paper's latencies.
	for _, row := range r.Rows {
		if row.Lines == 256 {
			if us := row.SaveLat.Microseconds(); us < 14 || us > 24 {
				t.Errorf("256-line save = %.1f us", us)
			}
			if us := row.RestoreLat.Microseconds(); us < 10 || us > 18 {
				t.Errorf("256-line restore = %.1f us", us)
			}
		}
	}
	if len(r.Table().Rows) != 6 {
		t.Error("table render wrong")
	}
}

func TestAblationTimerAlternatives(t *testing.T) {
	r, err := Default().AblationTimerAlternatives()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	base, alt1, alt2, alt2Gated := r.Rows[0], r.Rows[1], r.Rows[2], r.Rows[3]
	// Alternative 1 helps over baseline but needs a pin.
	if alt1.IdleMW >= base.IdleMW {
		t.Errorf("alt1 (%.2f) not below baseline (%.2f)", alt1.IdleMW, base.IdleMW)
	}
	if alt1.ExtraPins == 0 {
		t.Error("alt1 should cost a package pin")
	}
	// Alternative 2 beats alternative 1 even before the FET gating.
	if alt2.IdleMW >= alt1.IdleMW {
		t.Errorf("alt2 (%.2f) not below alt1 (%.2f)", alt2.IdleMW, alt1.IdleMW)
	}
	// And the gating it enables widens the gap decisively.
	if alt2Gated.IdleMW >= alt2.IdleMW {
		t.Errorf("gated (%.2f) not below alt2 (%.2f)", alt2Gated.IdleMW, alt2.IdleMW)
	}
}

func TestAblationIOGate(t *testing.T) {
	r, err := Default().AblationIOGate()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	fet, epg, none := r.Rows[0], r.Rows[1], r.Rows[2]
	if !(fet.IdleMW < epg.IdleMW && epg.IdleMW < none.IdleMW) {
		t.Errorf("ordering wrong: FET %.3f, EPG %.3f, none %.3f",
			fet.IdleMW, epg.IdleMW, none.IdleMW)
	}
	// The FET-vs-EPG gap is small (both gate the rail) but real.
	if d := epg.IdleMW - fet.IdleMW; d <= 0 || d > 0.5 {
		t.Errorf("FET/EPG gap = %.3f mW", d)
	}
}

func TestAblationReinitSensitivity(t *testing.T) {
	r, err := Default().AblationReinitSensitivity()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Break-even must grow monotonically with exit cost.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].BreakEven <= r.Rows[i-1].BreakEven {
			t.Errorf("break-even not monotone at scale %.1f", r.Rows[i].Scale)
		}
	}
	// The 1.0x point is the paper calibration.
	for _, row := range r.Rows {
		if row.Scale == 1.0 {
			if ms := row.BreakEven.Milliseconds(); math.Abs(ms-6.5) > 0.5 {
				t.Errorf("1.0x break-even = %.2f ms", ms)
			}
		}
	}
}

func TestWakeCoalescing(t *testing.T) {
	r, err := Default().WakeCoalescing()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Bigger buffers must wake less often and burn less power.
	for i := 1; i < 5; i++ {
		prev, cur := r.Rows[i-1], r.Rows[i]
		if cur.WakesPerHour >= prev.WakesPerHour {
			t.Errorf("%s wakes (%.0f/h) not below %s (%.0f/h)",
				cur.Label, cur.WakesPerHour, prev.Label, prev.WakesPerHour)
		}
		if cur.AvgMW >= prev.AvgMW {
			t.Errorf("%s power (%.1f) not below %s (%.1f)",
				cur.Label, cur.AvgMW, prev.Label, prev.AvgMW)
		}
	}
	// No buffer may overflow: the high-water wake fires in time.
	for _, row := range r.Rows {
		if row.Overflows != 0 {
			t.Errorf("%s dropped %d packets", row.Label, row.Overflows)
		}
	}
	// The LTR-gated row never reaches DRIPS and pays dearly for it.
	gated := r.Rows[5]
	if gated.IdlePct != 0 {
		t.Errorf("gated row reached DRIPS: %.2f%%", gated.IdlePct)
	}
	if gated.AvgMW < r.Rows[4].AvgMW*2 {
		t.Errorf("gated row (%.1f mW) not dramatically above buffered rows", gated.AvgMW)
	}
}

func TestProcessScaling(t *testing.T) {
	r, err := Default().ProcessScaling()
	if err != nil {
		t.Fatal(err)
	}
	// The 22 nm platform must idle meaningfully hotter than 14 nm.
	if r.HaswellTotalMW < r.SkylakeTotalMW*1.15 {
		t.Errorf("Haswell DRIPS %.1f mW not well above Skylake %.1f mW",
			r.HaswellTotalMW, r.SkylakeTotalMW)
	}
	// The §7 projection must validate at the paper's ~95% or better.
	if r.AccuracyPct < 95 {
		t.Errorf("projection accuracy = %.1f%%", r.AccuracyPct)
	}
	// Haswell's C10 exit is ~3 ms; Skylake's a few hundred us (§3).
	if ms := r.HaswellExitAvg.Milliseconds(); ms < 2.5 || ms > 3.5 {
		t.Errorf("Haswell exit = %.2f ms, want ~3", ms)
	}
	if us := r.SkylakeExitAvg.Microseconds(); us > 400 {
		t.Errorf("Skylake exit = %.0f us", us)
	}
}

func TestHaswellRejectsODRIPS(t *testing.T) {
	cfg := platform.ODRIPSConfig()
	cfg.Generation = platform.GenHaswell
	if _, err := platform.New(cfg); err == nil {
		t.Fatal("Haswell platform accepted ODRIPS techniques")
	}
}

func TestStandbyComparison(t *testing.T) {
	r, err := Default().Standby()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	base, odrips, s3 := r.Rows[0], r.Rows[1], r.Rows[2]
	// S3 undercuts both connected-standby floors…
	if !(s3.FloorMW < odrips.FloorMW && odrips.FloorMW < base.FloorMW) {
		t.Errorf("floors not ordered: S3 %.1f, ODRIPS %.1f, base %.1f",
			s3.FloorMW, odrips.FloorMW, base.FloorMW)
	}
	// …but wakes three orders of magnitude slower.
	if s3.WakeLatency < 500*odrips.WakeLatency {
		t.Errorf("S3 wake %v not far above ODRIPS %v", s3.WakeLatency, odrips.WakeLatency)
	}
}

func TestTransitionAnatomy(t *testing.T) {
	base, err := Default().TransitionAnatomy(0)
	if err != nil {
		t.Fatal(err)
	}
	odrips, err := Default().TransitionAnatomy(platform.ODRIPS)
	if err != nil {
		t.Fatal(err)
	}
	if len(odrips.Rows) <= len(base.Rows) {
		t.Errorf("ODRIPS flow (%d steps) not longer than baseline (%d)",
			len(odrips.Rows), len(base.Rows))
	}
	// Per-step energies must sum to more than baseline's: the transition-
	// energy delta that produces the break-even residency.
	baseJ := base.EntryTotalUJ + base.ExitTotalUJ
	optJ := odrips.EntryTotalUJ + odrips.ExitTotalUJ
	if optJ <= baseJ {
		t.Errorf("ODRIPS transition energy %.1f uJ not above baseline %.1f uJ", optJ, baseJ)
	}
	// The delta matches the measured CycleEnergy difference (~105 uJ).
	if d := optJ - baseJ; d < 70 || d > 150 {
		t.Errorf("transition delta = %.1f uJ, want ~105", d)
	}
	// Every step carries non-negative energy.
	for _, row := range odrips.Rows {
		if row.EnergyUJ < 0 {
			t.Errorf("step %s has negative energy", row.Step)
		}
	}
}

// TestAllTablesRenderComplete exercises every table constructor end to end:
// report.AddRow panics on column-count mistakes, so a render pass is a real
// structural check on each experiment's output.
func TestAllTablesRenderComplete(t *testing.T) {
	renders := []struct {
		name string
		run  func() (interface{ String() string }, error)
	}{
		{"fig6b", func() (interface{ String() string }, error) {
			r, err := Default().Fig6b()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"fig6c", func() (interface{ String() string }, error) {
			r, err := Default().Fig6c()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"fig6d", func() (interface{ String() string }, error) {
			r, err := Default().Fig6d(SweepOptions{})
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"fig2", func() (interface{ String() string }, error) {
			r, err := Default().Fig2()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"fig3b", func() (interface{ String() string }, error) {
			r, err := Default().Fig3b()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"calibration", func() (interface{ String() string }, error) {
			r, err := Default().Calibration()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"ctxlatency", func() (interface{ String() string }, error) {
			r, err := Default().CtxLatency()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"validation", func() (interface{ String() string }, error) {
			r, err := Default().ModelValidation()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"scaling", func() (interface{ String() string }, error) {
			r, err := Default().ProcessScaling()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"standby", func() (interface{ String() string }, error) {
			r, err := Default().Standby()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"coalescing", func() (interface{ String() string }, error) {
			r, err := Default().WakeCoalescing()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"anatomy", func() (interface{ String() string }, error) {
			r, err := Default().TransitionAnatomy(platform.ODRIPS)
			if err != nil {
				return nil, err
			}
			return r.Table("ODRIPS"), nil
		}},
		{"timer-alts", func() (interface{ String() string }, error) {
			r, err := Default().AblationTimerAlternatives()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"io-gate", func() (interface{ String() string }, error) {
			r, err := Default().AblationIOGate()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"mee-cache", func() (interface{ String() string }, error) {
			r, err := Default().AblationMEECache()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"reinit", func() (interface{ String() string }, error) {
			r, err := Default().AblationReinitSensitivity()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
	}
	for _, rd := range renders {
		tbl, err := rd.run()
		if err != nil {
			t.Fatalf("%s: %v", rd.name, err)
		}
		if len(tbl.String()) < 80 {
			t.Errorf("%s: suspiciously short render", rd.name)
		}
	}
}

func TestCalibrationAging(t *testing.T) {
	r, err := CalibrationAging()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Stale drift ≈ 1000 ppb per ppm of shift (±25%), and essentially
		// the quantization floor for no shift.
		want := 1000 * row.DeltaPPM
		if row.DeltaPPM == 0 {
			if row.StaleDriftPPB > 2 {
				t.Errorf("zero-shift stale drift = %.2f ppb", row.StaleDriftPPB)
			}
		} else if math.Abs(row.StaleDriftPPB-want) > want*0.25 {
			t.Errorf("%+.1f ppm: stale drift = %.1f ppb, want ~%.0f", row.DeltaPPM, row.StaleDriftPPB, want)
		}
		// Recalibration always recovers the ppb-scale target (within the
		// 1 ppb quantization bound plus 1 count of sampling granularity).
		if row.RecalDriftPPB > 2 {
			t.Errorf("%+.1f ppm: post-recal drift = %.2f ppb", row.DeltaPPM, row.RecalDriftPPB)
		}
	}
}

func TestTDPSensitivity(t *testing.T) {
	r, err := Default().TDPSensitivity()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Reduction must shrink monotonically as TDP grows (§1).
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].ReductionPct >= r.Rows[i-1].ReductionPct {
			t.Errorf("%.1fW reduction %.1f%% not below %.1fW's %.1f%%",
				r.Rows[i].TDPWatts, r.Rows[i].ReductionPct,
				r.Rows[i-1].TDPWatts, r.Rows[i-1].ReductionPct)
		}
	}
	// The 15 W row is the headline 22%.
	if math.Abs(r.Rows[1].ReductionPct-22) > 1.5 {
		t.Errorf("15W reduction = %.1f%%", r.Rows[1].ReductionPct)
	}
	// Baseline average power grows with TDP.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].BaselineMW <= r.Rows[i-1].BaselineMW {
			t.Error("baseline power not increasing with TDP")
		}
	}
}

func TestWakeLatencyDistribution(t *testing.T) {
	r, err := Default().WakeLatency()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byKey := map[string]WakeLatencyRow{}
	for _, row := range r.Rows {
		if !(row.Min <= row.Mean && row.Mean <= row.P95 && row.P95 <= row.Max) {
			t.Errorf("%s/%s distribution disordered: %+v", row.Name, row.Flow, row)
		}
		byKey[row.Name+"/"+row.Flow] = row
	}
	baseExit, optExit := byKey["Baseline/exit"], byKey["ODRIPS/exit"]
	optEntry := byKey["ODRIPS/entry"]
	// ODRIPS exits are slower…
	if optExit.Mean <= baseExit.Mean {
		t.Errorf("ODRIPS exit mean %v not above baseline %v", optExit.Mean, baseExit.Mean)
	}
	// …by the paper's "few tens of microseconds" (up to ~200 us with
	// crystal restart + FET + context restore + re-init).
	if r.DeltaMean < 30*sim.Microsecond || r.DeltaMean > 200*sim.Microsecond {
		t.Errorf("mean exit delta = %v, want tens of microseconds", r.DeltaMean)
	}
	// Worst-case ODRIPS exit stays far below user perception.
	if optExit.Max > sim.Millisecond {
		t.Errorf("ODRIPS max exit = %v", optExit.Max)
	}
	// Exits are edge-aligned hence deterministic; the 32 kHz phase wait
	// shows as spread in the ODRIPS entry flow instead.
	if optExit.Max-optExit.Min > sim.Microsecond {
		t.Errorf("ODRIPS exit spread = %v, expected edge-aligned determinism", optExit.Max-optExit.Min)
	}
	if optEntry.Max-optEntry.Min < 15*sim.Microsecond {
		t.Errorf("ODRIPS entry spread = %v, expected the 32 kHz edge wait to show", optEntry.Max-optEntry.Min)
	}
}
