package fleet

import (
	"odrips/internal/memostore"
	"odrips/internal/platform"
)

// PlaneFor builds a memo plane over store sized for the job: at least
// Spec.PlaneClasses, and never smaller than the job's own memo class
// count (an undersized plane thrashes — correct, but it re-simulates
// what it evicts). One-shot CLI runs use this; Run(s, nil) does the
// same sizing over a detached plane.
func PlaneFor(s Spec, store *memostore.Store) (*platform.MemoPlane, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	devices, err := expand(s)
	if err != nil {
		return nil, err
	}
	classes := make(map[string]bool, len(devices))
	for _, d := range devices {
		classes[d.memoClass] = true
	}
	n := s.PlaneClasses
	if n < len(classes) {
		n = len(classes)
	}
	return platform.NewMemoPlane(store, n), nil
}
