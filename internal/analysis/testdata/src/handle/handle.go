// Package handle is an odrips-vet test fixture: collections of sim.Event
// handles that outlive Cancel.
package handle

import "odrips/internal/sim"

// badQueue stashes handles where they will go stale.
type badQueue struct {
	pending []sim.Event       // want handle
	byID    map[int]sim.Event // want handle
}

// goodTicker holds the single live handle, the sim.Ticker pattern.
type goodTicker struct {
	ev sim.Event
}

// badLocal builds a local collection of handles.
func badLocal(s *sim.Scheduler) {
	handles := make([]sim.Event, 0, 4) // want handle
	for i := 1; i <= 4; i++ {
		handles = append(handles, s.After(sim.Duration(i), "fixture", func() {}))
	}
	_ = handles
}

// goodSingle re-arms one handle in place.
func goodSingle(s *sim.Scheduler) sim.Event {
	ev := s.After(1, "fixture", func() {})
	return ev
}

// allowed shows the audited escape hatch.
func allowed() {
	var cache map[string]sim.Event //odrips:allow handle fixture exercises the allow path
	_ = cache
}
