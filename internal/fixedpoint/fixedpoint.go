// Package fixedpoint implements the fixed-point arithmetic used by the
// chipset slow timer (paper §4.1.3).
//
// The slow timer advances the 64-bit platform time-stamp counter while the
// 24 MHz clock is off by adding, on every 32.768 kHz cycle, a Step value that
// represents the fast/slow frequency ratio as a Q(m.f) fixed-point number
// (m=10 integer bits and f=21 fractional bits for the paper's clocks at
// 1 ppb precision). The accumulator therefore needs 64+f bits; Acc keeps the
// fraction in a separate word so no precision is lost.
package fixedpoint

import (
	"fmt"
	"math/bits"
)

// Q is an unsigned fixed-point number with FracBits fractional bits. The
// zero value is the number 0 with 0 fractional bits.
type Q struct {
	Raw      uint64 // value * 2^FracBits
	FracBits uint
}

// New builds a Q from a raw scaled value.
func New(raw uint64, fracBits uint) Q {
	if fracBits > 63 {
		panic(fmt.Sprintf("fixedpoint: %d fractional bits unsupported", fracBits))
	}
	return Q{Raw: raw, FracBits: fracBits}
}

// Integer returns the integer part.
func (q Q) Integer() uint64 { return q.Raw >> q.FracBits }

// Frac returns the fractional part as raw scaled bits (value * 2^FracBits).
func (q Q) Frac() uint64 { return q.Raw & (1<<q.FracBits - 1) }

// Float returns the value as a float64 (display/diagnostics only).
func (q Q) Float() float64 { return float64(q.Raw) / float64(uint64(1)<<q.FracBits) }

// IntBitsNeeded returns the number of bits needed for the integer part of a
// fast/slow frequency ratio: floor(log2(fast/slow)) + 1 (paper Eq. 2).
func IntBitsNeeded(fastHz, slowHz uint64) uint {
	if fastHz == 0 || slowHz == 0 {
		panic("fixedpoint: zero frequency")
	}
	ratio := fastHz / slowHz
	if ratio == 0 {
		return 1
	}
	return uint(bits.Len64(ratio))
}

// FracBitsNeeded returns the number of fractional bits needed to bound the
// counting drift below one fast-clock cycle per 10^9 fast cycles (1 ppb):
// the smallest f with 2^f > (10^9 - 1) * slow / fast (paper Eq. 4).
func FracBitsNeeded(fastHz, slowHz uint64) uint {
	if fastHz == 0 || slowHz == 0 {
		panic("fixedpoint: zero frequency")
	}
	// threshold = (1e9-1) * slowHz / fastHz, computed in 128 bits.
	hi, lo := bits.Mul64(999_999_999, slowHz)
	if hi >= fastHz {
		panic("fixedpoint: slow clock faster than 2^64/1e9 of fast clock")
	}
	q, _ := bits.Div64(hi, lo, fastHz)
	// Smallest f with 2^f > threshold. Since 2^Len(q) > q for every integer
	// q and 2^Len(q) >= q+1 > threshold, f = Len64(q) suffices even when the
	// threshold has a fractional part or is itself a power of two.
	f := uint(bits.Len64(q))
	if f > 63 {
		panic("fixedpoint: required fractional bits exceed 63")
	}
	return f
}

// String renders the value as integer.fraction_hex for debugging.
func (q Q) String() string {
	return fmt.Sprintf("%d+0x%x/2^%d", q.Integer(), q.Frac(), q.FracBits)
}

// Acc is a (64 + FracBits)-bit fixed-point accumulator: a 64-bit integer
// part plus FracBits of fraction. It is the paper's slow-timer register
// ((64+21) bits for the Skylake implementation). The zero value is a valid
// zero accumulator with zero fractional bits; use NewAcc to pick the width.
type Acc struct {
	Int      uint64 // integer part (the architectural timer value)
	frac     uint64 // fractional part, low FracBits bits significant
	FracBits uint
}

// NewAcc returns a zero accumulator with the given fraction width.
func NewAcc(fracBits uint) *Acc {
	if fracBits > 63 {
		panic(fmt.Sprintf("fixedpoint: %d fractional bits unsupported", fracBits))
	}
	return &Acc{FracBits: fracBits}
}

// SetInt loads an integer value, clearing the fraction. This is the
// fast-timer → slow-timer copy at the 32 kHz edge during ODRIPS entry.
func (a *Acc) SetInt(v uint64) {
	a.Int = v
	a.frac = 0
}

// AddN accumulates n steps at once (used to fast-forward the slow timer
// across a long idle period without simulating every 32 kHz edge). It is
// exactly equivalent to adding step n times, one carry at a time.
func (a *Acc) AddN(step Q, n uint64) {
	if step.FracBits != a.FracBits {
		panic(fmt.Sprintf("fixedpoint: adding Q with %d fractional bits to accumulator with %d",
			step.FracBits, a.FracBits))
	}
	// total fractional contribution = n*step.Frac(), up to 128 bits.
	hi, lo := bits.Mul64(n, step.Frac())
	// carry = floor((frac + n*stepFrac) / 2^f): add current fraction.
	lo2, c := bits.Add64(lo, a.frac, 0)
	hi += c
	carry := hi<<(64-a.FracBits) | lo2>>a.FracBits
	a.frac = lo2 & (1<<a.FracBits - 1)
	a.Int += n*step.Integer() + carry
}

// Frac returns the fractional part as raw scaled bits.
func (a *Acc) Frac() uint64 { return a.frac }

// Floor returns the integer part (the value reported to the platform timer).
func (a *Acc) Floor() uint64 { return a.Int }
