package fixedpoint

import (
	"fmt"
	"math/bits"
)

// Reference arithmetic for the tests: the program builds its Step with New
// and accumulates with AddN; these are the oracles those are checked
// against.

// FromRatio returns num/den rounded down to fracBits fractional bits.
// It computes floor(num * 2^fracBits / den) with a full 128-bit
// intermediate, so it is exact for any operands whose quotient fits.
// This is the calibration division of §4.1.3: with den chosen as a power of
// two (N_slow = 2^f) it reduces to placing the fixed point, but FromRatio
// supports arbitrary denominators for the property tests.
func FromRatio(num, den uint64, fracBits uint) Q {
	if den == 0 {
		panic("fixedpoint: division by zero")
	}
	if fracBits > 63 {
		panic(fmt.Sprintf("fixedpoint: %d fractional bits unsupported", fracBits))
	}
	hi, lo := bits.Mul64(num, 1<<fracBits)
	if hi >= den {
		panic(fmt.Sprintf("fixedpoint: %d/%d at %d fractional bits overflows 64 bits", num, den, fracBits))
	}
	q, _ := bits.Div64(hi, lo, den)
	return Q{Raw: q, FracBits: fracBits}
}

// Add accumulates a step. The step must have the same fraction width.
func (a *Acc) Add(step Q) {
	if step.FracBits != a.FracBits {
		panic(fmt.Sprintf("fixedpoint: adding Q with %d fractional bits to accumulator with %d",
			step.FracBits, a.FracBits))
	}
	a.frac += step.Frac()
	carry := a.frac >> a.FracBits
	a.frac &= 1<<a.FracBits - 1
	a.Int += step.Integer() + carry
}

// Float returns the full value as float64 (diagnostics only).
func (a *Acc) Float() float64 {
	return float64(a.Int) + float64(a.frac)/float64(uint64(1)<<a.FracBits)
}
