package experiments

import (
	"math"
	"strings"
	"testing"

	"odrips/internal/sim"
)

func TestFig1bMatchesPaper(t *testing.T) {
	r, err := Default().Fig1b()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.TotalMW-60) > 1 {
		t.Errorf("DRIPS total = %.2f mW, want ~60", r.TotalMW)
	}
	if math.Abs(r.ProcessorPct-18) > 1.5 {
		t.Errorf("processor share = %.1f%%, want ~18%%", r.ProcessorPct)
	}
	find := func(label string) BreakdownSlice {
		for _, s := range r.Slices {
			if s.Label == label {
				return s
			}
		}
		t.Fatalf("slice %q missing", label)
		return BreakdownSlice{}
	}
	if s := find("AON IOs (4)"); math.Abs(s.Percent-7) > 1 {
		t.Errorf("AON IO = %.1f%%, want ~7%%", s.Percent)
	}
	if s := find("S/R SRAMs (7,8)"); math.Abs(s.Percent-9) > 1 {
		t.Errorf("S/R SRAM = %.1f%%, want ~9%%", s.Percent)
	}
	wake := find("Wake-up & timer (5)").Percent + find("24MHz crystal (1)").Percent
	if math.Abs(wake-5) > 1 {
		t.Errorf("wake-up hardware = %.1f%%, want ~5%%", wake)
	}
	// Slices must cover everything.
	var sum float64
	for _, s := range r.Slices {
		sum += s.Percent
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("slices sum to %.3f%%", sum)
	}
	if !strings.Contains(r.Table().String(), "DRIPS") {
		t.Error("table render broken")
	}
}

func TestFig2MatchesPaper(t *testing.T) {
	r, err := Default().Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if r.AverageMW < 70 || r.AverageMW > 80 {
		t.Errorf("average = %.2f mW", r.AverageMW)
	}
	// Equation 1 over measured rows must reproduce the measured average.
	if math.Abs(r.Equation1-r.AverageMW) > 0.05 {
		t.Errorf("Eq.1 %.3f vs measured %.3f", r.Equation1, r.AverageMW)
	}
	var idleRes, activePow float64
	for _, row := range r.Rows {
		switch row.State.String() {
		case "DRIPS":
			idleRes = row.Residency
		case "Active":
			activePow = row.PowerMW
		}
	}
	if idleRes < 0.99 {
		t.Errorf("DRIPS residency = %.4f", idleRes)
	}
	if activePow < 2500 || activePow > 3500 {
		t.Errorf("active power = %.0f mW, want ~3000", activePow)
	}
}

func TestFig3bWaveform(t *testing.T) {
	r, err := Default().Fig3b()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"assert-switch", "slow-loaded", "deassert-switch", "fast-reloaded"}
	if len(r.Events) != len(want) {
		t.Fatalf("events = %d (%v), want %d", len(r.Events), r.Events, len(want))
	}
	var last sim.Time
	var values []uint64
	for i, e := range r.Events {
		if e.Event != want[i] {
			t.Errorf("event %d = %s, want %s", i, e.Event, want[i])
		}
		if e.At < last {
			t.Error("events out of order")
		}
		last = e.At
		values = append(values, e.Value)
	}
	// Timer values must be monotonically non-decreasing through the
	// hand-over (counting correctness, §4.1.3).
	for i := 1; i < len(values); i++ {
		if values[i] < values[i-1] {
			t.Errorf("timer value regressed: %v", values)
		}
	}
}

func TestCalibrationExperiment(t *testing.T) {
	r, err := Default().Calibration()
	if err != nil {
		t.Fatal(err)
	}
	if r.IntBits != 10 || r.FracBits != 21 {
		t.Errorf("m,f = %d,%d", r.IntBits, r.FracBits)
	}
	if r.DriftPPB > 1.0 {
		t.Errorf("quantization drift = %.3f ppb", r.DriftPPB)
	}
	if r.MeasuredDriftPPB > 5.0 {
		t.Errorf("measured drift = %.3f ppb", r.MeasuredDriftPPB)
	}
	if math.Abs(r.Window.Seconds()-64) > 0.1 {
		t.Errorf("window = %v", r.Window)
	}
}

func TestFig6aWithoutSweep(t *testing.T) {
	r, err := Default().Fig6a(SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	want := map[string]float64{
		"WAKE-UP-OFF":  6,
		"AON-IO-GATE":  13,
		"CTX-SGX-DRAM": 8,
		"ODRIPS":       22,
	}
	for _, row := range r.Rows[1:] {
		if w, ok := want[row.Name]; ok {
			if math.Abs(row.ReductionPct-w) > 1.0 {
				t.Errorf("%s reduction = %.1f%%, paper %v%%", row.Name, row.ReductionPct, w)
			}
		}
	}
	wantBE := map[string]float64{
		"WAKE-UP-OFF":  6.6,
		"AON-IO-GATE":  6.3,
		"CTX-SGX-DRAM": 7.4,
		"ODRIPS":       6.5,
	}
	for _, row := range r.Rows[1:] {
		if w, ok := wantBE[row.Name]; ok {
			if math.Abs(row.BreakEven.Milliseconds()-w) > 0.5 {
				t.Errorf("%s break-even = %.2f ms, paper %v ms", row.Name, row.BreakEven.Milliseconds(), w)
			}
		}
	}
}

func TestSweepBreakEvenAgreesWithAnalytic(t *testing.T) {
	// One configuration, coarse grid: the empirical crossover must land
	// near the analytic break-even.
	r, err := Default().Fig6a(SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var odrips ConfigResult
	for _, row := range r.Rows {
		if row.Name == "ODRIPS" {
			odrips = row
		}
	}
	opts := SweepOptions{
		Enabled:        true,
		Lo:             4 * sim.Millisecond,
		Hi:             12 * sim.Millisecond,
		Step:           500 * sim.Microsecond,
		CyclesPerPoint: 1,
	}
	be, ok, err := Default().SweepBreakEven(fig6aConfigs()[0], fig6aConfigs()[4], opts)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no crossover found in sweep")
	}
	if diff := math.Abs(be.Milliseconds() - odrips.BreakEven.Milliseconds()); diff > 1.0 {
		t.Errorf("sweep BE %.2f ms vs analytic %.2f ms", be.Milliseconds(), odrips.BreakEven.Milliseconds())
	}
}

func TestFig6bShape(t *testing.T) {
	r, err := Default().Fig6b()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// 1.0 GHz saves, 1.5 GHz costs (§8.1).
	if r.Rows[1].ReductionPct <= 0 {
		t.Errorf("1.0 GHz delta = %.2f%%, want a saving", r.Rows[1].ReductionPct)
	}
	if r.Rows[2].ReductionPct >= 0 {
		t.Errorf("1.5 GHz delta = %.2f%%, want a penalty", r.Rows[2].ReductionPct)
	}
}

func TestFig6cShape(t *testing.T) {
	r, err := Default().Fig6c()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Lower rates save slightly and stretch the context transfer (§8.2).
	if !(r.Rows[1].ReductionPct > 0 && r.Rows[2].ReductionPct > r.Rows[1].ReductionPct) {
		t.Errorf("reductions = %.2f, %.2f", r.Rows[1].ReductionPct, r.Rows[2].ReductionPct)
	}
	if r.Rows[2].ReductionPct > 1.5 {
		t.Errorf("0.8 GHz saving = %.2f%%, paper says under ~1%%", r.Rows[2].ReductionPct)
	}
	if !(r.CtxSave[2] > r.CtxSave[1] && r.CtxSave[1] > r.CtxSave[0]) {
		t.Errorf("ctx save latencies: %v", r.CtxSave)
	}
}

func TestFig6dShape(t *testing.T) {
	r, err := Default().Fig6d(SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ConfigResult{}
	for _, row := range r.Rows {
		byName[row.Name] = row
	}
	odrips, mram, pcm := byName["ODRIPS"], byName["ODRIPS-MRAM"], byName["ODRIPS-PCM"]
	if math.Abs(pcm.ReductionPct-37) > 1.5 {
		t.Errorf("ODRIPS-PCM = -%.1f%%, paper -37%%", pcm.ReductionPct)
	}
	if mram.AvgMW > odrips.AvgMW {
		t.Errorf("MRAM avg %.3f not below ODRIPS %.3f", mram.AvgMW, odrips.AvgMW)
	}
	if mram.BreakEven >= odrips.BreakEven || mram.BreakEven >= pcm.BreakEven {
		t.Errorf("MRAM break-even %v not lowest (ODRIPS %v, PCM %v)",
			mram.BreakEven, odrips.BreakEven, pcm.BreakEven)
	}
}

func TestCtxLatencyExperiment(t *testing.T) {
	r, err := Default().CtxLatency()
	if err != nil {
		t.Fatal(err)
	}
	byMedium := map[string]CtxLatencyRow{}
	for _, row := range r.Rows {
		byMedium[row.Medium] = row
	}
	sgx := byMedium["SGX DRAM (ODRIPS)"]
	if us := sgx.Save.Microseconds(); us < 14 || us > 24 {
		t.Errorf("SGX save = %.1f us, paper ~18", us)
	}
	if us := sgx.Restore.Microseconds(); us < 10 || us > 18 {
		t.Errorf("SGX restore = %.1f us, paper ~13", us)
	}
	if pcm := byMedium["PCM (ODRIPS-PCM)"]; pcm.Save <= sgx.Save {
		t.Error("PCM save not slower than DRAM save")
	}
	if mram := byMedium["eMRAM (ODRIPS-MRAM)"]; mram.Save >= sgx.Save {
		t.Error("eMRAM save not faster than DRAM save")
	}
}

func TestModelValidation(t *testing.T) {
	r, err := Default().ModelValidation()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The paper's model achieved ~95%; ours must too, on every variant.
	if r.WorstAccPct < 95 {
		t.Errorf("worst model accuracy = %.1f%%, want >= 95%%", r.WorstAccPct)
	}
}

func TestTable1(t *testing.T) {
	out := Table1().String()
	for _, want := range []string{"DDR3L-1600", "8 GB", "24 MHz", "32.768 kHz", "74%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestAllTablesRender(t *testing.T) {
	f1, err := Default().Fig1b()
	if err != nil {
		t.Fatal(err)
	}
	f6, err := Default().Fig6a(SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{f1.Table().String(), f6.Table().String(), f6.Chart().String()} {
		if len(s) < 50 {
			t.Error("suspiciously short render")
		}
	}
}
