package sgx

import (
	"testing"
	"testing/quick"
)

// overlaps reports whether two ranges intersect.
func overlaps(a, b Range) bool {
	return a.Base < b.Base+b.Size && b.Base < a.Base+a.Size
}

func TestPRMRRPlacement(t *testing.T) {
	rr, err := NewRangeRegisters(8<<30, 128<<20)
	if err != nil {
		t.Fatal(err)
	}
	p := rr.prmrr
	if p.Size != 128<<20 {
		t.Fatalf("PRMRR size = %d", p.Size)
	}
	if p.End() != 8<<30 {
		t.Fatalf("PRMRR not at top of memory: end = %#x", p.End())
	}
}

func TestBadPRMRR(t *testing.T) {
	if _, err := NewRangeRegisters(8<<30, 0); err == nil {
		t.Fatal("zero PRMRR accepted")
	}
	if _, err := NewRangeRegisters(8<<30, 63); err == nil {
		t.Fatal("unaligned PRMRR accepted")
	}
	if _, err := NewRangeRegisters(1<<20, 2<<20); err == nil {
		t.Fatal("oversized PRMRR accepted")
	}
}

func TestAllocate(t *testing.T) {
	rr, err := NewRangeRegisters(8<<30, 128<<20)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's context region: ~270 KB for 200 KB of data + metadata.
	ctx, err := rr.Allocate(270 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Base != rr.prmrr.Base {
		t.Fatalf("first allocation not at PRMRR base: %#x", ctx.Base)
	}
	if ctx.Size%64 != 0 {
		t.Fatalf("allocation not block-aligned: %d", ctx.Size)
	}
	// Under 0.3% of the PRMRR (§6.3).
	if frac := float64(ctx.Size) / float64(rr.prmrr.Size); frac > 0.003 {
		t.Fatalf("context uses %.4f of PRMRR, want < 0.003", frac)
	}
	second, err := rr.Allocate(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if overlaps(second, ctx) {
		t.Fatal("allocations overlap")
	}
	if len(rr.ranges) != 2 {
		t.Fatal("allocation bookkeeping wrong")
	}
}

func TestAllocateExhaustion(t *testing.T) {
	rr, err := NewRangeRegisters(1<<30, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rr.Allocate(1 << 20); err != nil {
		t.Fatal(err)
	}
	if _, err := rr.Allocate(64); err == nil {
		t.Fatal("over-allocation accepted")
	}
	if _, err := rr.Allocate(0); err == nil {
		t.Fatal("zero allocation accepted")
	}
}

func TestRangeOps(t *testing.T) {
	a := Range{Base: 100, Size: 50}
	b := Range{Base: 149, Size: 10}
	c := Range{Base: 150, Size: 10}
	if !overlaps(a, b) || !overlaps(b, a) {
		t.Fatal("adjacent-overlapping ranges not detected")
	}
	if overlaps(a, c) || overlaps(c, a) {
		t.Fatal("disjoint ranges reported overlapping")
	}
}

// Property: every allocated byte is inside the PRMRR and allocations never
// overlap pairwise.
func TestAllocationDisjointProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		rr, err := NewRangeRegisters(8<<30, 16<<20)
		if err != nil {
			return false
		}
		var got []Range
		for _, s := range sizes {
			r, err := rr.Allocate(uint64(s) + 1)
			if err != nil {
				continue // exhausted is fine
			}
			got = append(got, r)
		}
		for i, a := range got {
			if a.Base < rr.prmrr.Base || a.End() > rr.prmrr.End() {
				return false
			}
			for _, b := range got[i+1:] {
				if overlaps(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
