// Package errdrop is an odrips-vet test fixture: errors from the
// fail-safe load paths (memostore Load*, faults.Parse, the ffDecode*
// codec convention) discarded instead of handled.
package errdrop

import (
	"context"
	"errors"

	"odrips/internal/faults"
	"odrips/internal/memostore"
)

// ffDecodeWire matches the platform bundle codec naming convention.
func ffDecodeWire(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, errors.New("empty")
	}
	return len(b), nil
}

// badBlank binds the error results to _.
func badBlank(s *memostore.Store, key []byte) ([]byte, faults.Plan, int) {
	payload, ok, _ := s.Load("cycles", key) // want errdrop
	_ = ok
	plan, _ := faults.Parse("mee@2") // want errdrop
	n, _ := ffDecodeWire(payload)    // want errdrop
	return payload, plan, n
}

// badDropped discards every result of a fail-safe loader.
func badDropped(s *memostore.Store, key []byte) {
	s.Load("cycles", key) // want errdrop
	faults.Parse("mee@2") // want errdrop
	ffDecodeWire(key)     // want errdrop
}

// badClaims covers the claim surface: a blanked Claim error silently
// downgrades "compute uncoordinated" into "assume another process
// computes" — a potential hang, not a graceful miss.
func badClaims(s *memostore.Store, key []byte) []byte {
	c, _ := s.Claim("cycles", key) // want errdrop
	if c != nil {
		c.Release()
	}
	payload, ok, _ := s.AwaitClaimed(context.Background(), "cycles", key) // want errdrop
	_ = ok
	return payload
}

// goodClaims handles the coordination errors explicitly.
func goodClaims(s *memostore.Store, key []byte) error {
	c, err := s.Claim("cycles", key)
	if err != nil {
		return err // claim unavailable: compute uncoordinated
	}
	if c != nil {
		defer c.Release()
	}
	return nil
}

// good handles the error explicitly, treating a typed miss as a cold
// cache and anything else as a real failure.
func good(s *memostore.Store, key []byte) ([]byte, error) {
	payload, ok, err := s.Load("cycles", key)
	if err != nil {
		var corrupt *memostore.CorruptError
		if !errors.As(err, &corrupt) {
			return nil, err
		}
		return nil, nil // counted miss; recompute
	}
	if !ok {
		return nil, nil
	}
	if _, derr := ffDecodeWire(payload); derr != nil {
		return nil, derr
	}
	return payload, nil
}

// allowed shows the audited escape hatch.
func allowed(s *memostore.Store, key []byte) []byte {
	payload, _, _ := s.Load("cycles", key) //odrips:allow errdrop fixture exercises the allow path
	return payload
}
