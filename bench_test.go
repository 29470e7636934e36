package odrips

// One benchmark per table and figure of the paper's evaluation. Each runs
// the corresponding experiment end-to-end on the simulated platform and
// reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole results section. Paper anchors, for comparison:
// Fig. 1(b) ~60 mW DRIPS total; Fig. 2 ~99.5% DRIPS residency; Fig. 6(a)
// reductions 6/13/8/22% with break-evens 6.6/6.3/7.4/6.5 ms; Fig. 6(b)
// -1.4%/+1%; Fig. 6(c) -0.3%/-0.7%; Fig. 6(d) ODRIPS-PCM -37%; §6.3 context
// save/restore 18/13 µs; §4.1.3 m=10, f=21, 1 ppb; §7 model accuracy ~95%.

import (
	"testing"

	"odrips/internal/experiments"
	"odrips/internal/memostore"
	"odrips/internal/platform"
	"odrips/internal/sim"
)

// warmMemoStore opens a fresh RW persistent memo store for a warm
// benchmark; each iteration builds a new runtime over it, so loads come
// from disk, not RAM.
func warmMemoStore(b *testing.B) *memostore.Store {
	b.Helper()
	s, err := memostore.Open(b.TempDir(), memostore.RW)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// coldRuntime builds a runtime on a fresh plane over the default store,
// as the facade's default runtime does: a benchmark that builds one per
// iteration times simulation, not the point memo's hits. Its iterations
// Flush like the facade's calls, so under make bench-warm the warm pass
// loads what the cold pass wrote.
func coldRuntime() *experiments.Runtime {
	return experiments.NewRuntime(platform.NewMemoPlane(memostore.Default(), 0), FFOn, 0)
}

func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(Table1().Rows) == 0 {
			b.Fatal("empty Table 1")
		}
	}
}

func BenchmarkFig1b(b *testing.B) {
	b.ReportAllocs()
	var total float64
	for i := 0; i < b.N; i++ {
		r, err := Fig1b()
		if err != nil {
			b.Fatal(err)
		}
		total = r.TotalMW
	}
	b.ReportMetric(total, "DRIPS_mW")
}

func BenchmarkFig2(b *testing.B) {
	b.ReportAllocs()
	var avg, resid float64
	for i := 0; i < b.N; i++ {
		r, err := Fig2()
		if err != nil {
			b.Fatal(err)
		}
		avg = r.AverageMW
		for _, row := range r.Rows {
			if row.State == Idle {
				resid = row.Residency
			}
		}
	}
	b.ReportMetric(avg, "avg_mW")
	b.ReportMetric(100*resid, "DRIPS_residency_%")
}

func BenchmarkFig3b(b *testing.B) {
	b.ReportAllocs()
	var events int
	for i := 0; i < b.N; i++ {
		r, err := Fig3b()
		if err != nil {
			b.Fatal(err)
		}
		events = len(r.Events)
	}
	b.ReportMetric(float64(events), "handover_milestones")
}

func BenchmarkCalibration(b *testing.B) {
	b.ReportAllocs()
	var drift float64
	for i := 0; i < b.N; i++ {
		r, err := Calibration()
		if err != nil {
			b.Fatal(err)
		}
		drift = r.MeasuredDriftPPB
	}
	b.ReportMetric(drift, "drift_ppb")
}

func BenchmarkFig6a(b *testing.B) {
	b.ReportAllocs()
	var odripsRed, odripsBE float64
	for i := 0; i < b.N; i++ {
		r, err := Fig6a(SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Name == "ODRIPS" {
				odripsRed = row.ReductionPct
				odripsBE = row.BreakEven.Milliseconds()
			}
		}
	}
	b.ReportMetric(odripsRed, "ODRIPS_reduction_%")
	b.ReportMetric(odripsBE, "ODRIPS_breakeven_ms")
}

func BenchmarkFig6aSweep(b *testing.B) {
	b.ReportAllocs()
	// The empirical residency sweep (coarse grid; PaperSweepGrid() for the
	// full 0.6 ms–1 s @0.1 ms run).
	var be float64
	for i := 0; i < b.N; i++ {
		rt := coldRuntime()
		r, err := rt.Fig6a(DefaultSweep())
		if err != nil {
			b.Fatal(err)
		}
		rt.Flush()
		for _, row := range r.Rows {
			if row.Name == "ODRIPS" && row.SweepBE > 0 {
				be = row.SweepBE.Milliseconds()
			}
		}
	}
	b.ReportMetric(be, "ODRIPS_sweep_breakeven_ms")
}

// BenchmarkFig6aSweepWarm is the sweep replayed from a populated
// persistent memo store: each iteration drops the in-process caches, so
// the measured cost is store loads plus report assembly, not simulation.
func BenchmarkFig6aSweepWarm(b *testing.B) {
	b.ReportAllocs()
	store := warmMemoStore(b)
	run := func() {
		rt := experiments.NewRuntime(platform.NewMemoPlane(store, 0), FFOn, 0) // warm = disk, not RAM
		if _, err := rt.Fig6a(DefaultSweep()); err != nil {
			b.Fatal(err)
		}
		rt.Flush() // the fill writes the store; warm runs find nothing to write
	}
	run() // populate the store (cold, untimed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkFig6b(b *testing.B) {
	b.ReportAllocs()
	var saving1GHz float64
	for i := 0; i < b.N; i++ {
		r, err := Fig6b()
		if err != nil {
			b.Fatal(err)
		}
		saving1GHz = r.Rows[1].ReductionPct
	}
	b.ReportMetric(saving1GHz, "1GHz_saving_%")
}

func BenchmarkFig6c(b *testing.B) {
	b.ReportAllocs()
	var saving800 float64
	for i := 0; i < b.N; i++ {
		r, err := Fig6c()
		if err != nil {
			b.Fatal(err)
		}
		saving800 = r.Rows[2].ReductionPct
	}
	b.ReportMetric(saving800, "DDR3L800_saving_%")
}

func BenchmarkFig6d(b *testing.B) {
	b.ReportAllocs()
	var pcmRed float64
	for i := 0; i < b.N; i++ {
		r, err := Fig6d(SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Name == "ODRIPS-PCM" {
				pcmRed = row.ReductionPct
			}
		}
	}
	b.ReportMetric(pcmRed, "PCM_reduction_%")
}

func BenchmarkCtxLatency(b *testing.B) {
	b.ReportAllocs()
	var saveUS, restoreUS float64
	for i := 0; i < b.N; i++ {
		r, err := CtxLatency()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Medium == "SGX DRAM (ODRIPS)" {
				saveUS = row.Save.Microseconds()
				restoreUS = row.Restore.Microseconds()
			}
		}
	}
	b.ReportMetric(saveUS, "ctx_save_us")
	b.ReportMetric(restoreUS, "ctx_restore_us")
}

func BenchmarkModelValidation(b *testing.B) {
	b.ReportAllocs()
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := ModelValidation()
		if err != nil {
			b.Fatal(err)
		}
		worst = r.WorstAccPct
	}
	b.ReportMetric(worst, "model_accuracy_%")
}

func BenchmarkAblationMEECache(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt := coldRuntime()
		if _, err := rt.AblationMEECache(); err != nil {
			b.Fatal(err)
		}
		rt.Flush()
	}
}

func BenchmarkAblationTimerAlternatives(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AblationTimerAlternatives(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationIOGate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AblationIOGate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationReinitSensitivity(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AblationReinitSensitivity(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWakeCoalescing(b *testing.B) {
	b.ReportAllocs()
	var bigBufferMW float64
	for i := 0; i < b.N; i++ {
		rt := coldRuntime()
		r, err := rt.WakeCoalescing()
		if err != nil {
			b.Fatal(err)
		}
		rt.Flush()
		bigBufferMW = r.Rows[4].AvgMW
	}
	b.ReportMetric(bigBufferMW, "256KiB_buffer_mW")
}

func BenchmarkProcessScaling(b *testing.B) {
	b.ReportAllocs()
	var acc float64
	for i := 0; i < b.N; i++ {
		r, err := ProcessScaling()
		if err != nil {
			b.Fatal(err)
		}
		acc = r.AccuracyPct
	}
	b.ReportMetric(acc, "projection_accuracy_%")
}

func BenchmarkWakeLatency(b *testing.B) {
	b.ReportAllocs()
	var deltaUS float64
	for i := 0; i < b.N; i++ {
		rt := coldRuntime()
		r, err := rt.WakeLatency()
		if err != nil {
			b.Fatal(err)
		}
		rt.Flush()
		deltaUS = r.DeltaMean.Microseconds()
	}
	b.ReportMetric(deltaUS, "exit_delta_us")
}

func BenchmarkTDPSensitivity(b *testing.B) {
	b.ReportAllocs()
	var lowTDP float64
	for i := 0; i < b.N; i++ {
		r, err := TDPSensitivity()
		if err != nil {
			b.Fatal(err)
		}
		lowTDP = r.Rows[0].ReductionPct
	}
	b.ReportMetric(lowTDP, "4.5W_reduction_%")
}

func BenchmarkCalibrationAging(b *testing.B) {
	b.ReportAllocs()
	var stale2ppm float64
	for i := 0; i < b.N; i++ {
		r, err := CalibrationAging()
		if err != nil {
			b.Fatal(err)
		}
		stale2ppm = r.Rows[2].StaleDriftPPB
	}
	b.ReportMetric(stale2ppm, "stale_2ppm_drift_ppb")
}

func BenchmarkTransitionAnatomy(b *testing.B) {
	b.ReportAllocs()
	var deltaUJ float64
	for i := 0; i < b.N; i++ {
		base, err := TransitionAnatomy(0)
		if err != nil {
			b.Fatal(err)
		}
		opt, err := TransitionAnatomy(ODRIPS)
		if err != nil {
			b.Fatal(err)
		}
		deltaUJ = (opt.EntryTotalUJ + opt.ExitTotalUJ) - (base.EntryTotalUJ + base.ExitTotalUJ)
	}
	b.ReportMetric(deltaUJ, "transition_delta_uJ")
}

func BenchmarkStandbyComparison(b *testing.B) {
	b.ReportAllocs()
	var s3mW float64
	for i := 0; i < b.N; i++ {
		r, err := Standby()
		if err != nil {
			b.Fatal(err)
		}
		s3mW = r.Rows[2].FloorMW
	}
	b.ReportMetric(s3mW, "S3_floor_mW")
}

// BenchmarkSchedulerChurn exercises the scheduler hot path the platform
// model leans on: schedule two events, cancel one, run to the other. The
// free-list event pool keeps this at zero allocations per operation.
func BenchmarkSchedulerChurn(b *testing.B) {
	b.ReportAllocs()
	s := sim.NewScheduler()
	nop := func() {}
	for i := 0; i < b.N; i++ {
		keep := s.After(sim.Duration(1), "keep", nop)
		drop := s.After(sim.Duration(2), "drop", nop)
		s.Cancel(drop)
		s.RunFor(sim.Duration(1))
		_ = keep
	}
}

// BenchmarkConnectedStandbySixHours measures simulator throughput on a
// long realistic workload: six hours of connected standby (~720 cycles,
// every context save/restore running real MEE crypto). Each iteration
// builds a fresh runtime, so no iteration replays another's records.
func BenchmarkConnectedStandbySixHours(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := experiments.NewRuntime(nil, FFOn, 0).NewPlatform(ODRIPSConfig())
		if err != nil {
			b.Fatal(err)
		}
		res, err := p.RunCycles(ConnectedStandby(720, int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AvgPowerMW, "avg_mW")
		b.ReportMetric(res.Duration.Seconds(), "simulated_s")
	}
}

// BenchmarkConnectedStandbySixHoursWarm is the six-hour run replayed
// from a populated persistent memo store with a fixed seed: each
// iteration drops the in-process bundle cache, so the measured cost is
// the bundle decode, the per-boundary fingerprints, and the replay
// arithmetic — the post-memo residue — not simulation.
func BenchmarkConnectedStandbySixHoursWarm(b *testing.B) {
	b.ReportAllocs()
	store := warmMemoStore(b)
	run := func() Result {
		rt := experiments.NewRuntime(platform.NewMemoPlane(store, 0), FFOn, 0) // warm = disk, not RAM
		p, err := rt.NewPlatform(ODRIPSConfig())
		if err != nil {
			b.Fatal(err)
		}
		res, err := p.RunCycles(ConnectedStandby(720, 1))
		if err != nil {
			b.Fatal(err)
		}
		rt.Flush() // the fill writes the store; warm runs find nothing to write
		return res
	}
	run() // populate the store (cold, untimed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := run()
		b.ReportMetric(res.AvgPowerMW, "avg_mW")
		b.ReportMetric(res.Duration.Seconds(), "simulated_s")
	}
}

// BenchmarkRuntimeNewPlatform measures assembling an ODRIPS platform
// from a runtime's warm template: what every memo-class run and
// break-even sweep point pays before it simulates anything.
func BenchmarkRuntimeNewPlatform(b *testing.B) {
	b.ReportAllocs()
	rt := experiments.NewRuntime(nil, FFOn, 0)
	cfg := ODRIPSConfig()
	if _, err := rt.NewPlatform(cfg); err != nil { // build the template, untimed
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.NewPlatform(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// fleet10kSpec is the acceptance-scenario fleet: 10,000 devices over a
// six-hour horizon whose spread (battery capacities) is homogeneous in
// simulation physics, so the engine collapses it to one simulated run
// plus result patching.
func fleet10kSpec() FleetSpec {
	return FleetSpec{
		Name:    "bench10k",
		Devices: 10000,
		Shards:  16,
		Spread: FleetSpread{
			BatteryMWh: []float64{36000, 30000, 28000},
		},
	}
}

// BenchmarkFleet10k measures a cold 10,000-device fleet job end to end:
// expansion, one simulated run (the fleet's single run class, attached
// to the plane), one battery patch per device kind (three), and
// aggregation. Compare
// against 10,000× BenchmarkConnectedStandbySixHours for the sequential
// cost it replaces.
func BenchmarkFleet10k(b *testing.B) {
	b.ReportAllocs()
	spec := fleet10kSpec()
	for i := 0; i < b.N; i++ {
		rt := experiments.NewRuntime(nil, FFOn, 0) // a fresh storeless plane: fully cold
		rep, err := Fleet(rt, spec)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Memo.CrossDeviceHitRatePct, "hit_pct")
		b.ReportMetric(float64(rep.Aggregates.TotalDeviceCycles), "device_cycles")
	}
}

// BenchmarkFleet10kWarm is the same fleet replayed from a populated
// persistent memo store: each iteration builds a fresh runtime, and so a
// fresh plane, over the store, so the measured cost is the disk adopt
// plus replay — no cycle is ever recorded twice across iterations.
func BenchmarkFleet10kWarm(b *testing.B) {
	benchFleetWarm(b, fleet10kSpec())
}

// BenchmarkFleet1MWarm is BenchmarkFleet10kWarm at 1,000,000 devices.
// The fleet has the same three kinds, so its cost over the 10k run is
// the per-device float sums of aggregation alone.
func BenchmarkFleet1MWarm(b *testing.B) {
	spec := fleet10kSpec()
	spec.Devices = 1_000_000
	benchFleetWarm(b, spec)
}

func benchFleetWarm(b *testing.B, spec FleetSpec) {
	b.ReportAllocs()
	store := warmMemoStore(b)
	run := func() *FleetReport {
		rt := experiments.NewRuntime(platform.NewMemoPlane(store, 0), FFOn, 0) // warm = disk, not RAM
		rep, err := Fleet(rt, spec)
		if err != nil {
			b.Fatal(err)
		}
		return rep
	}
	run() // populate the store (cold, untimed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := run()
		b.ReportMetric(rep.Memo.CrossDeviceHitRatePct, "hit_pct")
		b.ReportMetric(float64(rep.Memo.Store.Hits), "store_hits")
	}
}
