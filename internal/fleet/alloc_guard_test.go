//go:build !race

// Alloc-regression guard for the fleet's size-dependent path. It is
// excluded under the race detector, whose instrumentation inserts its
// own allocations; the plain `go test` tier runs it.

package fleet

import (
	"context"
	"testing"

	"odrips/internal/experiments"
	"odrips/internal/platform"
)

// TestFleetAllocsIndependentOfSize pins classification, progress setup
// and aggregation at an allocation count independent of fleet size: a
// device costs no allocation, from 10,000 devices to 1,000,000.
func TestFleetAllocsIndependentOfSize(t *testing.T) {
	sized := func(devices int) Spec {
		s := mixedSpec()
		s.Devices = devices
		s, err := s.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Both sizes have the same run classes, so one set of outcomes serves.
	tab := expand(sized(10_000))
	runs, err := runChains(context.Background(), experiments.NewRuntime(nil, platform.FFOn, 0), sized(10_000), &tab, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(devices int) float64 {
		s := sized(devices)
		return testing.AllocsPerRun(3, func() {
			t := expand(s)
			NewProgress().start(&t)
			if _, err := aggregate(s, &t, runs); err != nil {
				panic(err)
			}
		})
	}
	small, large := allocs(10_000), allocs(1_000_000)
	if small != large || small > 128 {
		t.Errorf("expand+start+aggregate allocs: %v at 10,000 devices, %v at 1,000,000; want one small constant", small, large)
	}
	t.Logf("%v allocs per fleet", small)
}
