// Package sgx models the memory-controller side of the protected-memory
// plumbing of §6.2: the processor-reserved memory range registers
// (Context/SGX RR in Fig. 4) and the allocation of the small context
// region inside the protected range.
package sgx

import (
	"fmt"

	"odrips/internal/dram"
)

// Range is a physical address range [Base, Base+Size).
type Range struct {
	Base uint64
	Size uint64
}

// End returns the first address after the range.
func (r Range) End() uint64 { return r.Base + r.Size }

// RangeRegisters is the memory controller's protected range: accesses
// inside it are routed through the MEE, everything else goes straight to
// DRAM. The model places the range and allocates sub-ranges in it.
type RangeRegisters struct {
	prmrr  Range   // processor-reserved (SGX) memory range
	ranges []Range // sub-ranges in use (context region, enclave pages, ...)
}

// NewRangeRegisters reserves the PRMRR at the top of memory with the given
// size (64 MB or 128 MB in deployed SGX systems, §6.3).
func NewRangeRegisters(capacityBytes, prmrrSize uint64) (*RangeRegisters, error) {
	if prmrrSize == 0 || prmrrSize%dram.BlockSize != 0 {
		return nil, fmt.Errorf("sgx: invalid PRMRR size %d", prmrrSize)
	}
	if prmrrSize > capacityBytes {
		return nil, fmt.Errorf("sgx: PRMRR size %d exceeds memory capacity %d", prmrrSize, capacityBytes)
	}
	base := capacityBytes - prmrrSize
	base -= base % dram.BlockSize
	return &RangeRegisters{prmrr: Range{Base: base, Size: prmrrSize}}, nil
}

// Allocate reserves size bytes inside the PRMRR and returns the sub-range.
// Allocation is a simple bump within the reserved range; the context region
// of §6.2 needs at most ~270 KB (200 KB data + tree metadata), under 0.3%
// of a 128 MB PRMRR.
func (rr *RangeRegisters) Allocate(size uint64) (Range, error) {
	if size == 0 {
		return Range{}, fmt.Errorf("sgx: zero-size allocation")
	}
	size = (size + dram.BlockSize - 1) / dram.BlockSize * dram.BlockSize
	next := rr.prmrr.Base
	for _, r := range rr.ranges {
		if r.End() > next {
			next = r.End()
		}
	}
	alloc := Range{Base: next, Size: size}
	if alloc.End() > rr.prmrr.End() {
		return Range{}, fmt.Errorf("sgx: PRMRR exhausted: need %d bytes, %d free", size, rr.prmrr.End()-next)
	}
	rr.ranges = append(rr.ranges, alloc)
	return alloc, nil
}
