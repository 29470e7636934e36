package fixedpoint

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPaperBitWidths(t *testing.T) {
	// Paper §4.1.3: 24 MHz fast clock, 32.768 kHz slow clock, 1 ppb
	// precision → m = 10 integer bits, f = 21 fractional bits.
	const fast, slow = 24_000_000, 32_768
	if m := IntBitsNeeded(fast, slow); m != 10 {
		t.Errorf("IntBitsNeeded = %d, want 10", m)
	}
	if f := FracBitsNeeded(fast, slow); f != 21 {
		t.Errorf("FracBitsNeeded = %d, want 21", f)
	}
}

func TestIntBitsNeededTable(t *testing.T) {
	cases := []struct {
		fast, slow uint64
		want       uint
	}{
		{24_000_000, 32_768, 10}, // ratio 732.4 → floor(log2)+1 = 10
		{100_000_000, 32_768, 12},
		{3 * 32_768, 32_768, 2}, // ratio 3 → 2 bits
		{4 * 32_768, 32_768, 3}, // ratio 4 → 3 bits
		{32_768, 32_768, 1},     // ratio 1
		{16_384, 32_768, 1},     // sub-unity ratio still needs 1 bit
	}
	for _, c := range cases {
		if got := IntBitsNeeded(c.fast, c.slow); got != c.want {
			t.Errorf("IntBitsNeeded(%d,%d) = %d, want %d", c.fast, c.slow, got, c.want)
		}
	}
}

func TestFromRatioExact(t *testing.T) {
	// 3/1 with 4 fractional bits = 48 raw.
	q := FromRatio(3, 1, 4)
	if q.Raw != 48 || q.Integer() != 3 || q.Frac() != 0 {
		t.Fatalf("FromRatio(3,1,4) = %+v", q)
	}
	// 1/3 with 21 bits: floor(2^21/3) = 699050.
	q = FromRatio(1, 3, 21)
	if q.Raw != 699050 {
		t.Fatalf("FromRatio(1,3,21).Raw = %d, want 699050", q.Raw)
	}
}

func TestFromRatioPaperStep(t *testing.T) {
	// Step for 24 MHz / 32.768 kHz at f=21:
	// ratio = 732.421875 = 732 + 27/64 exactly (24e6/32768 = 46875/64).
	q := FromRatio(24_000_000, 32_768, 21)
	if q.Integer() != 732 {
		t.Fatalf("step integer = %d, want 732", q.Integer())
	}
	wantFrac := uint64(27 << (21 - 6)) // 27/64 in 21-bit fraction, exact
	if q.Frac() != wantFrac {
		t.Fatalf("step frac = %d, want %d", q.Frac(), wantFrac)
	}
	if math.Abs(q.Float()-732.421875) > 1e-12 {
		t.Fatalf("step float = %v, want 732.421875", q.Float())
	}
}

func TestFromRatioDivZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromRatio(x, 0, f) did not panic")
		}
	}()
	FromRatio(1, 0, 21)
}

func TestFromRatioOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overflowing FromRatio did not panic")
		}
	}()
	FromRatio(math.MaxUint64, 1, 21)
}

func TestAccAdd(t *testing.T) {
	a := NewAcc(4)
	step := New(0x18, 4) // 1.5
	a.AddN(step, 4)
	if a.Floor() != 6 || a.Frac() != 0 {
		t.Fatalf("4 * 1.5 accumulated to %d + %d/16, want 6 + 0", a.Floor(), a.Frac())
	}
}

func TestAccCarryPropagation(t *testing.T) {
	a := NewAcc(21)
	a.SetInt(0)
	step := New(1, 21) // smallest positive step: 2^-21
	for i := 0; i < 1<<21; i++ {
		a.AddN(step, 1)
	}
	if a.Floor() != 1 || a.Frac() != 0 {
		t.Fatalf("2^21 * 2^-21 = %d + %d, want exactly 1", a.Floor(), a.Frac())
	}
}

func TestAccSetIntClearsFraction(t *testing.T) {
	a := NewAcc(21)
	a.AddN(New(3<<20, 21), 1) // 1.5
	a.SetInt(100)
	if a.Floor() != 100 || a.Frac() != 0 {
		t.Fatalf("SetInt left %d + %d/2^21", a.Floor(), a.Frac())
	}
}

func TestAccMismatchedWidthPanics(t *testing.T) {
	a := NewAcc(21)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched width AddN did not panic")
		}
	}()
	a.AddN(New(1, 20), 1)
}

func TestAddNEquivalence(t *testing.T) {
	step := FromRatio(24_000_000, 32_768, 21)
	one := NewAcc(21)
	bulk := NewAcc(21)
	const n = 10_000
	for i := 0; i < n; i++ {
		one.Add(step)
	}
	bulk.AddN(step, n)
	if one.Int != bulk.Int || one.Frac() != bulk.Frac() {
		t.Fatalf("AddN diverges: loop=%d+%d bulk=%d+%d", one.Int, one.Frac(), bulk.Int, bulk.Frac())
	}
}

// Property: AddN(step, n) == n sequential Adds for random steps and counts.
func TestAddNEquivalenceProperty(t *testing.T) {
	f := func(rawSeed uint32, nSeed uint16, fracBits uint8) bool {
		fb := uint(fracBits%32) + 1
		step := New(uint64(rawSeed), fb)
		n := uint64(nSeed % 2000)
		one := NewAcc(fb)
		bulk := NewAcc(fb)
		for i := uint64(0); i < n; i++ {
			one.Add(step)
		}
		bulk.AddN(step, n)
		return one.Int == bulk.Int && one.Frac() == bulk.Frac()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: FromRatio is within 2^-f of the true ratio, from below.
func TestFromRatioAccuracyProperty(t *testing.T) {
	f := func(numSeed, denSeed uint32) bool {
		num := uint64(numSeed)%1_000_000 + 1
		den := uint64(denSeed)%1_000_000 + 1
		q := FromRatio(num, den, 21)
		truth := float64(num) / float64(den)
		diff := truth - q.Float()
		return diff >= -1e-12 && diff < 1.0/float64(uint64(1)<<21)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: accumulated drift after n steps is below n * 2^-f + 1 counts,
// i.e. the error per step never exceeds the quantization of Step.
func TestAccDriftBoundProperty(t *testing.T) {
	f := func(nSeed uint16) bool {
		const fast, slow = 24_000_000, 32_768
		step := FromRatio(fast, slow, 21)
		a := NewAcc(21)
		n := uint64(nSeed)
		a.AddN(step, n)
		truth := float64(fast) / float64(slow) * float64(n)
		drift := truth - a.Float()
		bound := float64(n)/float64(uint64(1)<<21) + 1e-6
		return drift >= -1e-6 && drift <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQString(t *testing.T) {
	q := New(48, 4)
	if s := q.String(); s != "3+0x0/2^4" {
		t.Errorf("String = %q", s)
	}
}

func BenchmarkAccAdd(b *testing.B) {
	step := FromRatio(24_000_000, 32_768, 21)
	a := NewAcc(21)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Add(step)
	}
}

func BenchmarkAccAddN(b *testing.B) {
	step := FromRatio(24_000_000, 32_768, 21)
	a := NewAcc(21)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.AddN(step, 1_000_000)
	}
}
