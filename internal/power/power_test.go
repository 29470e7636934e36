package power

import (
	"math"
	"testing"
	"testing/quick"

	"odrips/internal/sim"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeterIntegration(t *testing.T) {
	s := sim.NewScheduler()
	m := NewMeter(s, 1.0)
	c := m.Register("sram", "processor", Delivered)
	m.Set(c, 10) // 10 mW
	s.After(sim.Second, "advance", func() {})
	s.Run()
	snap := m.Snapshot()
	if !approx(snap.Battery["sram"].Joules(), 0.010, 1e-12) {
		t.Fatalf("10mW for 1s = %v J, want 0.010", snap.Battery["sram"].Joules())
	}
}

func TestMeterEfficiencyTax(t *testing.T) {
	s := sim.NewScheduler()
	m := NewMeter(s, 0.74)
	del := m.Register("del", "x", Delivered)
	dir := m.Register("dir", "x", Direct)
	m.Set(del, 7.4)
	m.Set(dir, 5.0)
	if got := m.BatteryPowerMW(); !approx(got, 15.0, 1e-9) {
		t.Fatalf("battery power = %v, want 15 (7.4/0.74 + 5)", got)
	}
	if got := m.NominalPowerMW(); !approx(got, 12.4, 1e-9) {
		t.Fatalf("nominal power = %v, want 12.4", got)
	}
	s.After(sim.Second, "advance", func() {})
	s.Run()
	snap := m.Snapshot()
	if !approx(snap.Battery["del"].Joules(), 0.010, 1e-12) {
		t.Fatalf("delivered battery J = %v, want 0.010", snap.Battery["del"].Joules())
	}
	if !approx(snap.NominalE["del"].Joules(), 0.0074, 1e-12) {
		t.Fatalf("delivered nominal J = %v, want 0.0074", snap.NominalE["del"].Joules())
	}
	if !approx(snap.Battery["dir"].Joules(), 0.005, 1e-12) {
		t.Fatalf("direct battery J = %v, want 0.005", snap.Battery["dir"].Joules())
	}
}

func TestMeterDrawChangeMidway(t *testing.T) {
	s := sim.NewScheduler()
	m := NewMeter(s, 1.0)
	c := m.Register("x", "g", Delivered)
	m.Set(c, 100)
	s.After(sim.Millisecond, "drop", func() { m.Set(c, 0) })
	s.After(2*sim.Millisecond, "end", func() {})
	s.Run()
	snap := m.Snapshot()
	want := 100e-3 * 1e-3 // 100 mW for 1 ms
	if !approx(snap.Battery["x"].Joules(), want, 1e-15) {
		t.Fatalf("energy = %v, want %v", snap.Battery["x"].Joules(), want)
	}
}

func TestMeterEfficiencyChangeMidway(t *testing.T) {
	s := sim.NewScheduler()
	m := NewMeter(s, 0.5)
	c := m.Register("x", "g", Delivered)
	m.Set(c, 10)
	s.After(sim.Second, "eff", func() { m.SetEfficiency(1.0) })
	s.After(2*sim.Second, "end", func() {})
	s.Run()
	snap := m.Snapshot()
	want := 0.010/0.5 + 0.010/1.0
	if !approx(snap.Battery["x"].Joules(), want, 1e-12) {
		t.Fatalf("energy across efficiency change = %v, want %v", snap.Battery["x"].Joules(), want)
	}
}

func TestNegativeDrawPanics(t *testing.T) {
	s := sim.NewScheduler()
	m := NewMeter(s, 1.0)
	c := m.Register("x", "g", Delivered)
	defer func() {
		if recover() == nil {
			t.Fatal("negative draw did not panic")
		}
	}()
	m.Set(c, -1)
}

func TestDuplicateComponentPanics(t *testing.T) {
	s := sim.NewScheduler()
	m := NewMeter(s, 1.0)
	m.Register("x", "g", Delivered)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	m.Register("x", "g", Delivered)
}

func TestBadEfficiencyPanics(t *testing.T) {
	s := sim.NewScheduler()
	for _, eff := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("efficiency %v did not panic", eff)
				}
			}()
			NewMeter(s, eff)
		}()
	}
}

func TestSnapshotSinceAndBreakdown(t *testing.T) {
	s := sim.NewScheduler()
	m := NewMeter(s, 1.0)
	a := m.Register("proc.sram", "processor", Delivered)
	b := m.Register("board.xtal", "board", Delivered)
	m.Set(a, 30)
	m.Set(b, 10)
	before := m.Snapshot()
	s.After(sim.Second, "end", func() {})
	s.Run()
	iv := m.Snapshot().Since(before)
	if iv.Duration != sim.Second {
		t.Fatalf("interval duration = %v, want 1s", iv.Duration)
	}
	if !approx(iv.AverageMW(), 40, 1e-9) {
		t.Fatalf("average = %v mW, want 40", iv.AverageMW())
	}
	// The per-component split of the interval: 30 mW and 10 mW for 1 s.
	if got := iv.ByName["proc.sram"].Joules(); !approx(got, 0.030, 1e-12) {
		t.Fatalf("proc.sram energy = %v J, want 0.030", got)
	}
	if got := iv.ByName["board.xtal"].Joules(); !approx(got, 0.010, 1e-12) {
		t.Fatalf("board.xtal energy = %v J, want 0.010", got)
	}
}

func TestLookupAndComponents(t *testing.T) {
	s := sim.NewScheduler()
	m := NewMeter(s, 1.0)
	m.Register("b", "g", Delivered)
	m.Register("a", "g", Direct)
	if m.Lookup("a") == nil || m.Lookup("zz") != nil {
		t.Fatal("Lookup misbehaved")
	}
	cs := m.Components()
	if len(cs) != 2 || cs[0].Name() != "a" || cs[1].Name() != "b" {
		t.Fatalf("Components() = %v,%v", cs[0].Name(), cs[1].Name())
	}
}

func TestProfileEquation1(t *testing.T) {
	// The paper's Fig. 2 numbers: 99.5% DRIPS at ~60 mW, 0.5% active-ish
	// at ~3 W gives ~74.4 mW average.
	p, err := NewProfile(
		map[State]float64{Active: 3000, Entry: 1000, Idle: 60, Exit: 1500},
		map[State]sim.Duration{
			Active: 150 * sim.Millisecond,
			Entry:  200 * sim.Microsecond,
			Idle:   30 * sim.Second,
			Exit:   300 * sim.Microsecond,
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(p.ResidencySum(), 1.0, 1e-12) {
		t.Fatalf("residencies sum to %v", p.ResidencySum())
	}
	avg := p.AverageMW()
	if avg < 70 || avg > 80 {
		t.Fatalf("average = %v mW, want ~74", avg)
	}
	if r := p.Residency[Idle]; r < 0.994 || r > 0.996 {
		t.Fatalf("DRIPS residency = %v, want ~0.995", r)
	}
}

func TestProfileErrors(t *testing.T) {
	_, err := NewProfile(
		map[State]float64{Active: 1, Idle: 1, Exit: 1}, // missing Entry
		map[State]sim.Duration{Active: 1, Entry: 1, Idle: 1, Exit: 1},
	)
	if err == nil {
		t.Fatal("missing state power accepted")
	}
	_, err = NewProfile(
		map[State]float64{Active: 1, Entry: 1, Idle: 1, Exit: 1},
		map[State]sim.Duration{Active: 0, Entry: 0, Idle: 0, Exit: 0},
	)
	if err == nil {
		t.Fatal("zero-duration cycle accepted")
	}
	_, err = NewProfile(
		map[State]float64{Active: -1, Entry: 1, Idle: 1, Exit: 1},
		map[State]sim.Duration{Active: 1, Entry: 1, Idle: 1, Exit: 1},
	)
	if err == nil {
		t.Fatal("negative power accepted")
	}
}

func TestBreakEven(t *testing.T) {
	base := CycleEnergy{TransitionUJ: 10, IdleMW: 60}
	opt := CycleEnergy{TransitionUJ: 120, IdleMW: 43.05} // paper-ish ODRIPS
	be, err := BreakEven(base, opt)
	if err != nil {
		t.Fatal(err)
	}
	// T* = 110 uJ / 16.95 mW = 6.49 ms.
	if got := be.Milliseconds(); !approx(got, 6.49, 0.01) {
		t.Fatalf("break-even = %v ms, want ~6.49", got)
	}
}

func TestBreakEvenNoImprovement(t *testing.T) {
	_, err := BreakEven(CycleEnergy{IdleMW: 60}, CycleEnergy{IdleMW: 60})
	if err == nil {
		t.Fatal("no-improvement break-even did not error")
	}
}

func TestBreakEvenFreeWin(t *testing.T) {
	be, err := BreakEven(
		CycleEnergy{TransitionUJ: 50, IdleMW: 60},
		CycleEnergy{TransitionUJ: 40, IdleMW: 50},
	)
	if err != nil || be != 0 {
		t.Fatalf("free win: be=%v err=%v, want 0,nil", be, err)
	}
}

func TestBreakEvenFromSweep(t *testing.T) {
	points := []SweepPoint{
		{Residency: 1 * sim.Millisecond, BaseMW: 100, OptMW: 120},
		{Residency: 5 * sim.Millisecond, BaseMW: 80, OptMW: 82},
		{Residency: 7 * sim.Millisecond, BaseMW: 75, OptMW: 70},
	}
	be, ok := BreakEvenFromSweep(points)
	if !ok || be != 7*sim.Millisecond {
		t.Fatalf("sweep break-even = %v,%v", be, ok)
	}
	_, ok = BreakEvenFromSweep(points[:2])
	if ok {
		t.Fatal("sweep without crossover reported ok")
	}
}

// Property: meter energy equals Σ draw_i × dt_i for random draw schedules,
// and battery power is never below nominal power.
func TestMeterEnergyProperty(t *testing.T) {
	f := func(draws []uint16, effSeed uint8) bool {
		if len(draws) == 0 {
			return true
		}
		eff := 0.5 + float64(effSeed%50)/100 // 0.5..0.99
		s := sim.NewScheduler()
		m := NewMeter(s, eff)
		c := m.Register("x", "g", Delivered)
		var wantJ float64
		const stepMS = 1
		for _, d := range draws {
			mw := float64(d % 1000)
			m.Set(c, mw)
			wantJ += mw * 1e-3 * float64(stepMS) * 1e-3 / eff
			if m.BatteryPowerMW() < m.NominalPowerMW()-1e-9 {
				return false
			}
			s.After(stepMS*sim.Millisecond, "adv", func() {})
			s.Run()
		}
		got := m.Snapshot().Battery["x"].Joules()
		return approx(got, wantJ, 1e-9+wantJ*1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Equation-1 average always lies between min and max state power.
func TestProfileBoundsProperty(t *testing.T) {
	f := func(p0, p1, p2, p3 uint16, d0, d1, d2, d3 uint16) bool {
		durs := map[State]sim.Duration{
			Active: sim.Duration(d0+1) * sim.Microsecond,
			Entry:  sim.Duration(d1+1) * sim.Microsecond,
			Idle:   sim.Duration(d2+1) * sim.Microsecond,
			Exit:   sim.Duration(d3+1) * sim.Microsecond,
		}
		pows := map[State]float64{
			Active: float64(p0), Entry: float64(p1), Idle: float64(p2), Exit: float64(p3),
		}
		prof, err := NewProfile(pows, durs)
		if err != nil {
			return false
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range pows {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		avg := prof.AverageMW()
		return avg >= lo-1e-9 && avg <= hi+1e-9 && approx(prof.ResidencySum(), 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMeterSet(b *testing.B) {
	s := sim.NewScheduler()
	m := NewMeter(s, 0.74)
	c := m.Register("x", "g", Delivered)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Set(c, float64(i%100))
	}
}
