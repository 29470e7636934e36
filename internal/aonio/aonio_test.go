package aonio

import (
	"math"
	"testing"
)

func TestStandardIOBudget(t *testing.T) {
	r := NewRing(StandardIOs())
	// The AON IO rail budget is 3.11 mW nominal (7% of the 60 mW DRIPS
	// platform power at the battery, before the power-delivery tax).
	if got := r.TotalDrawMW(); math.Abs(got-3.11) > 1e-9 {
		t.Fatalf("AON IO rail draw = %v mW, want 3.11", got)
	}
	if len(r.Names()) != 7 {
		t.Fatalf("IO inventory = %v", r.Names())
	}
}

func TestGating(t *testing.T) {
	r := NewRing(StandardIOs())
	var draws []float64
	r.OnDraw = func(mw float64) { draws = append(draws, mw) }
	if !r.Usable(IOPMLToChipset) {
		t.Fatal("ungated PML not usable")
	}
	r.SetGated(true)
	r.SetGated(true) // idempotent
	if r.Usable(IOPMLToChipset) || r.Usable(IOThermal) {
		t.Fatal("gated IOs usable")
	}
	if r.TotalDrawMW() != 0 {
		t.Fatal("gated rail still draws")
	}
	r.SetGated(false)
	if !r.Usable(IODebug) {
		t.Fatal("ungated IO unusable")
	}
	if len(draws) != 2 || draws[0] != 0 || draws[1] == 0 {
		t.Fatalf("draw hook = %v", draws)
	}
}

func TestUnknownIONotUsable(t *testing.T) {
	r := NewRing(StandardIOs())
	if r.Usable("nonexistent") {
		t.Fatal("unknown IO reported usable")
	}
}

func TestFET(t *testing.T) {
	r := NewRing(StandardIOs())
	f := NewFET(r)
	if f.ResidualLeakageMW() != 0 {
		t.Fatal("leakage while conducting")
	}
	f.Drive(true)
	if !r.Gated() {
		t.Fatal("FET drive did not gate the ring")
	}
	// Off-state leakage < 0.3% of the load (§5.3).
	leak := f.ResidualLeakageMW()
	if leak <= 0 || leak > 0.003*3.11+1e-12 {
		t.Fatalf("residual leakage = %v mW", leak)
	}
	f.Drive(false)
	if r.Gated() {
		t.Fatal("FET drive did not ungate")
	}
}

func TestEmptyRingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty ring did not panic")
		}
	}()
	NewRing(nil)
}

func TestNegativeDrawPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative draw did not panic")
		}
	}()
	NewRing(map[string]float64{"bad": -1})
}
