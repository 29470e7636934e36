package measure

import (
	"math"
	"testing"

	"odrips/internal/power"
	"odrips/internal/sim"
)

func TestAnalyzerCapturesConstantPower(t *testing.T) {
	s := sim.NewScheduler()
	a, err := NewAnalyzer(s, Channel{Name: "battery", Probe: func() float64 { return 60 }})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	s.RunFor(10 * sim.Millisecond)
	a.Stop()
	st, err := a.ChannelStats(0)
	if err != nil {
		t.Fatal(err)
	}
	// 10 ms at 50 us = 200 samples (+1 for the t=0 sample).
	if st.Samples < 200 || st.Samples > 201 {
		t.Fatalf("samples = %d", st.Samples)
	}
	if st.AvgMW != 60 || st.MinMW != 60 || st.MaxMW != 60 {
		t.Fatalf("stats = %+v", st)
	}
	wantJ := 60e-3 * 0.010
	if math.Abs(st.EnergyJ-wantJ) > wantJ*0.01 {
		t.Fatalf("energy = %v, want ~%v", st.EnergyJ, wantJ)
	}
}

func TestAnalyzerTracksStep(t *testing.T) {
	s := sim.NewScheduler()
	level := 100.0
	a, err := NewAnalyzer(s, Channel{Name: "x", Probe: func() float64 { return level }})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	s.RunFor(5 * sim.Millisecond)
	level = 10
	s.RunFor(5 * sim.Millisecond)
	a.Stop()
	st, err := a.ChannelStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.AvgMW-55) > 1.0 {
		t.Fatalf("avg = %v, want ~55", st.AvgMW)
	}
	if st.MinMW != 10 || st.MaxMW != 100 {
		t.Fatalf("min/max = %v/%v", st.MinMW, st.MaxMW)
	}
}

func TestAnalyzerAgainstExactMeter(t *testing.T) {
	// Sampled energy must agree with the meter's exact integration within
	// the sampling error bound — the invariant behind using the analyzer
	// as the "measurement" instrument.
	s := sim.NewScheduler()
	m := power.NewMeter(s, 1.0)
	c := m.Register("load", "g", power.Delivered)
	a, err := NewAnalyzer(s, Channel{Name: "battery", Probe: m.BatteryPowerMW})
	if err != nil {
		t.Fatal(err)
	}
	before := m.Snapshot()
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	// A few power steps, each an exact multiple of the sampling interval
	// so rectangle integration is exact.
	levels := []float64{60, 3000, 60, 1000, 42}
	for _, mw := range levels {
		m.Set(c, mw)
		s.RunFor(10 * sim.Millisecond)
	}
	a.Stop()
	exact := m.Snapshot().Since(before).TotalJ()
	st, err := a.ChannelStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.EnergyJ-exact) > exact*0.005 {
		t.Fatalf("sampled %.6f J vs exact %.6f J", st.EnergyJ, exact)
	}
}

func TestChannelLimits(t *testing.T) {
	s := sim.NewScheduler()
	if _, err := NewAnalyzer(s); err == nil {
		t.Fatal("zero channels accepted")
	}
	probe := func() float64 { return 0 }
	chs := make([]Channel, 5)
	for i := range chs {
		chs[i] = Channel{Name: "c", Probe: probe}
	}
	if _, err := NewAnalyzer(s, chs...); err == nil {
		t.Fatal("five channels accepted")
	}
	if _, err := NewAnalyzer(s, Channel{Name: "dead"}); err == nil {
		t.Fatal("probe-less channel accepted")
	}
}

func TestIntervalRules(t *testing.T) {
	s := sim.NewScheduler()
	a, err := NewAnalyzer(s, Channel{Name: "x", Probe: func() float64 { return 1 }})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetInterval(0); err == nil {
		t.Fatal("zero interval accepted")
	}
	if err := a.SetInterval(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := a.SetInterval(sim.Second); err == nil {
		t.Fatal("interval change while running accepted")
	}
	if err := a.Start(); err == nil {
		t.Fatal("double start accepted")
	}
	a.Stop()
	a.Stop() // idempotent
}

func TestStatsErrors(t *testing.T) {
	s := sim.NewScheduler()
	a, err := NewAnalyzer(s, Channel{Name: "x", Probe: func() float64 { return 1 }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ChannelStats(0); err == nil {
		t.Fatal("stats on empty capture accepted")
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	s.RunFor(sim.Millisecond)
	a.Stop()
	if _, err := a.ChannelStats(7); err == nil {
		t.Fatal("out-of-range channel accepted")
	}
	if len(a.ChannelNames()) != 1 {
		t.Fatal("channel names wrong")
	}
}

func TestStopAtDrainsQueue(t *testing.T) {
	s := sim.NewScheduler()
	a, err := NewAnalyzer(s, Channel{Name: "x", Probe: func() float64 { return 1 }})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	a.StopAt(sim.Time(10 * sim.Millisecond))
	s.Run() // must terminate because the ticker dies at the stop event
	if s.Now() != sim.Time(10*sim.Millisecond) {
		t.Fatalf("queue drained at %v", s.Now())
	}
	if len(a.Samples()) == 0 {
		t.Fatal("no samples captured")
	}
}
