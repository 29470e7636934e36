package battery

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStandbyDays(t *testing.T) {
	p := Tablet()
	// At the paper's baseline 74.7 mW a 36 Wh tablet lasts ~17-19 days
	// once self-discharge is counted.
	days, err := p.StandbyDays(74.7)
	if err != nil {
		t.Fatal(err)
	}
	if days < 15 || days > 20 {
		t.Fatalf("baseline standby = %.1f days", days)
	}
	// ODRIPS at 58.2 mW buys several more days.
	odays, err := p.StandbyDays(58.2)
	if err != nil {
		t.Fatal(err)
	}
	if odays <= days+3 {
		t.Fatalf("ODRIPS standby %.1f days not well above baseline %.1f", odays, days)
	}
}

func TestSelfDischargeCeiling(t *testing.T) {
	p := Tablet()
	// Even a perfect zero-power platform is bounded by self-discharge:
	// 2.5%/month of a 36 Wh pack is a 1.25 mW equivalent drain, capping
	// standby around 38 months of usable capacity... i.e. finite.
	days, err := p.StandbyDays(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(days, 1) || days > 3000 {
		t.Fatalf("self-discharge did not bound standby: %.0f days", days)
	}
	if days < 300 {
		t.Fatalf("zero-power standby implausibly short: %.0f days", days)
	}
}

func TestDrainPct(t *testing.T) {
	p := Tablet()
	// An 8-hour night at 74.7 mW drains ~1.8% of the usable pack.
	pct, err := p.DrainPct(74.7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if pct < 1.5 || pct > 2.2 {
		t.Fatalf("overnight drain = %.2f%%", pct)
	}
}

func TestValidation(t *testing.T) {
	bad := []Pack{
		{CapacityMWh: 0, UsableFraction: 0.9},
		{CapacityMWh: 1000, UsableFraction: 0},
		{CapacityMWh: 1000, UsableFraction: 1.5},
		{CapacityMWh: 1000, UsableFraction: 0.9, SelfDischargePctPerMonth: -1},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("bad pack %d accepted", i)
		}
	}
	p := Tablet()
	if _, err := p.StandbyHours(-1); err == nil {
		t.Error("negative power accepted")
	}
	if _, err := p.DrainPct(1, -1); err == nil {
		t.Error("negative hours accepted")
	}
}

func TestPackPresets(t *testing.T) {
	if err := Tablet().Validate(); err != nil {
		t.Errorf("preset invalid: %v", err)
	}
}

// Property: lower average power never shortens standby, and drain is
// linear in hours.
func TestMonotonicityProperty(t *testing.T) {
	f := func(p1, p2 uint16, hSeed uint8) bool {
		pack := Tablet()
		lo, hi := float64(p1%500), float64(p2%500)
		if lo > hi {
			lo, hi = hi, lo
		}
		dLo, err1 := pack.StandbyDays(lo)
		dHi, err2 := pack.StandbyDays(hi)
		if err1 != nil || err2 != nil {
			return false
		}
		if dLo < dHi-1e-9 {
			return false
		}
		h := float64(hSeed%100) + 1
		a, err3 := pack.DrainPct(hi, h)
		b, err4 := pack.DrainPct(hi, 2*h)
		if err3 != nil || err4 != nil {
			return false
		}
		return math.Abs(b-2*a) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
