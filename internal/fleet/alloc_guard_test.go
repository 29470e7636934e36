//go:build !race

// Alloc-regression guard for fleet classification. It is excluded under
// the race detector, whose instrumentation inserts its own allocations;
// the plain `go test` tier runs it.

package fleet

import "testing"

// TestFleetExpandAllocs pins classification at a constant allocation
// count, independent of fleet size: a device costs no allocation.
func TestFleetExpandAllocs(t *testing.T) {
	allocs := func(devices int) float64 {
		s := mixedSpec()
		s.Devices = devices
		s, err := s.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() { expand(s) })
	}
	small, large := allocs(1000), allocs(10000)
	if small != large || small > 32 {
		t.Errorf("expand allocs: %v at 1,000 devices, %v at 10,000; want one small constant", small, large)
	}
}
