package memostore

import (
	"context"
	"fmt"
	"os"
	"time"
)

// This file is the cross-process claim protocol (DESIGN.md §17): M
// cooperating processes over one store elect exactly one computer per
// cold key via an O_EXCL claim file next to the entry, so the cold-start
// residue — the first simulation of each steady state — is paid once
// fleet-wide instead of once per process.
//
// Soundness: claims influence WHO computes, never WHAT is computed. The
// computes are deterministic, so the owner's saved entry is byte-
// identical to what any waiter would have produced; a waiter that gives
// up (context canceled, claim vanished, filesystem trouble) simply
// computes uncoordinated and produces the same bytes. Walltime therefore
// appears only in the liveness heuristic — deciding that a claim whose
// file has not been refreshed is abandoned — where a wrong clock costs
// duplicate (byte-identical) work, never a wrong result. That is why the
// odrips-vet walltime allowances below are sound.
//
// Takeover is deliberately racy-but-benign: if a stale claim is removed
// while its slow owner is still computing, both finish and both Save the
// same bytes (last rename wins); an owner's Release after a takeover can
// remove the taker's claim file, which sends waiters back to claiming —
// again duplicate work at worst.

// DefaultClaimStaleAfter is the claim age after which AwaitClaimed
// presumes the owner died without releasing and takes the claim over.
const DefaultClaimStaleAfter = 30 * time.Second

// awaitPollFloor/Ceil bound AwaitClaimed's exponential poll backoff.
const (
	awaitPollFloor = time.Millisecond
	awaitPollCeil  = 50 * time.Millisecond
)

// Claim is an owned compute claim on one (class, key). The owner
// computes, Saves, and Releases; everyone else awaits.
type Claim struct {
	path     string
	released bool
}

// ClaimPath returns the claim file guarding (class, key): the entry path
// plus a ".claim" suffix, so the stats walk and loose-entry logic (which
// match on the ".memo" extension) never confuse the two.
func (s *Store) ClaimPath(class string, key []byte) string {
	return s.EntryPath(class, key) + ".claim"
}

// Claim attempts to become the process that computes (class, key).
// Outcomes:
//
//	(claim, nil): owned — compute, Save, then Release.
//	(nil, nil):   another live process holds the claim — AwaitClaimed.
//	(nil, err):   no coordination possible (store nil/not writable, or
//	              filesystem trouble) — compute uncoordinated; the claim
//	              layer must never be able to block a result.
func (s *Store) Claim(class string, key []byte) (*Claim, error) {
	if s == nil || !s.mode.Writable() {
		return nil, fmt.Errorf("memostore: claim needs a writable store (mode %s)", s.Mode())
	}
	path := s.ClaimPath(class, key)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		if os.IsExist(err) {
			s.count(func(st *Stats) { st.ClaimsLost++ })
			return nil, nil
		}
		return nil, err
	}
	fmt.Fprintf(f, "%d\n", os.Getpid()) // advisory: who held it, for debugging
	f.Close()
	s.count(func(st *Stats) { st.ClaimsOwned++ })
	return &Claim{path: path}, nil
}

// Release removes the claim file. Idempotent; never fails (a remove
// error leaves a stale claim that ages into a takeover).
func (c *Claim) Release() {
	if c == nil || c.released {
		return
	}
	c.released = true
	os.Remove(c.path)
}

// AwaitClaimed waits for another process's claim on (class, key) to
// resolve. Outcomes:
//
//	(payload, true, nil): the owner's entry landed — adopt it.
//	(nil, false, nil):    the claim vanished without an entry (owner
//	                      released empty-handed or died and aged out) —
//	                      retry Claim, or compute uncoordinated.
//	(nil, false, err):    ctx canceled — compute uncoordinated.
//
// The wait polls the entry and the claim file with bounded backoff; a
// claim older than DefaultClaimStaleAfter is removed (takeover) so a crashed
// owner cannot park waiters forever.
func (s *Store) AwaitClaimed(ctx context.Context, class string, key []byte) (payload []byte, ok bool, err error) {
	if s == nil || !s.mode.Readable() {
		return nil, false, nil
	}
	path := s.ClaimPath(class, key)
	wait := awaitPollFloor
	for {
		payload, ok, lerr := s.Load(class, key)
		if lerr == nil && ok {
			s.count(func(st *Stats) { st.ClaimWaitHits++ })
			return payload, true, nil
		}
		// A corrupt entry (lerr != nil) is a fail-safe miss: keep
		// waiting — the owner's Save will overwrite it or the claim
		// will resolve.
		info, serr := os.Stat(path)
		if serr != nil {
			// The claim is gone. Its owner saves before it releases, so an
			// entry that landed after the Load above is visible now.
			if payload, ok, lerr := s.Load(class, key); lerr == nil && ok {
				s.count(func(st *Stats) { st.ClaimWaitHits++ })
				return payload, true, nil
			}
			return nil, false, nil // claim gone; no entry appeared
		}
		//odrips:allow walltime claim staleness is a cross-process liveness heuristic only: a wrong clock duplicates byte-identical work, it cannot change results
		if time.Since(info.ModTime()) > DefaultClaimStaleAfter {
			os.Remove(path) // takeover; benign if the owner races us
			s.count(func(st *Stats) { st.ClaimTakeovers++ })
			return nil, false, nil
		}
		//odrips:allow walltime bounded poll sleep while awaiting another process's compute; pacing only, results are byte-identical at any poll cadence
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, false, ctx.Err()
		case <-t.C:
		}
		if wait < awaitPollCeil {
			wait *= 2
		}
	}
}
