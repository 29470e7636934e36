package memostore

import (
	"context"
	"os"
	"sync"
	"testing"
)

// twoStores opens two RW stores over one directory, emulating two
// cooperating processes (claims and entries are file-based, so two
// in-process stores exercise the identical protocol).
func twoStores(t *testing.T) (*Store, *Store) {
	t.Helper()
	a := openT(t, RW)
	b := reopen(t, a, RW)
	return a, b
}

func TestClaimExclusive(t *testing.T) {
	a, b := twoStores(t)
	key := []byte("cold")

	ca, err := a.Claim("cycles", key)
	if err != nil || ca == nil {
		t.Fatalf("first claim: %v %v", ca, err)
	}
	cb, err := b.Claim("cycles", key)
	if err != nil || cb != nil {
		t.Fatalf("second claim while held: claim=%v err=%v, want (nil, nil)", cb, err)
	}
	// Distinct keys are independent.
	if c, err := b.Claim("cycles", []byte("other")); err != nil || c == nil {
		t.Fatalf("unrelated claim: %v %v", c, err)
	}

	ca.Release()
	ca.Release() // idempotent
	cb2, err := b.Claim("cycles", key)
	if err != nil || cb2 == nil {
		t.Fatalf("claim after release: %v %v", cb2, err)
	}
	cb2.Release()

	if a.Stats().ClaimsOwned != 1 || b.Stats().ClaimsOwned != 2 || b.Stats().ClaimsLost != 1 {
		t.Fatalf("claim stats a=%+v b=%+v", a.Stats(), b.Stats())
	}
}

func TestClaimRequiresWritable(t *testing.T) {
	a := openT(t, RW)
	ro := reopen(t, a, RO)
	if c, err := ro.Claim("cycles", []byte("k")); err == nil || c != nil {
		t.Fatalf("read-only claim: %v %v, want error", c, err)
	}
	var nilStore *Store
	if c, err := nilStore.Claim("cycles", []byte("k")); err == nil || c != nil {
		t.Fatalf("nil-store claim: %v %v, want error", c, err)
	}
}

// TestAwaitClaimedOwnerLands covers the cooperative path: the owner's
// entry landing resolves the wait with the owner's payload.
func TestAwaitClaimedOwnerLands(t *testing.T) {
	a, b := twoStores(t)
	key := []byte("cold")
	c, err := a.Claim("cycles", key)
	if err != nil || c == nil {
		t.Fatal(err)
	}

	// Owner computes concurrently with the waiter; the waiter's poll loop
	// terminates as soon as the entry renames into place.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		a.Save("cycles", key, []byte("owner-result"))
		c.Release()
	}()
	payload, ok, err := b.AwaitClaimed(context.Background(), "cycles", key)
	wg.Wait()
	if err != nil || !ok || string(payload) != "owner-result" {
		t.Fatalf("await: ok=%v err=%v payload=%q", ok, err, payload)
	}
	if b.Stats().ClaimWaitHits != 1 {
		t.Fatalf("stats %+v, want one wait hit", b.Stats())
	}
}

// TestAwaitClaimedReleasedEmpty covers the owner failing: a released
// claim with no entry resolves the wait as a miss (the waiter then
// claims for itself or computes uncoordinated).
func TestAwaitClaimedReleasedEmpty(t *testing.T) {
	a, b := twoStores(t)
	key := []byte("cold")
	c, err := a.Claim("cycles", key)
	if err != nil || c == nil {
		t.Fatal(err)
	}
	c.Release()
	payload, ok, err := b.AwaitClaimed(context.Background(), "cycles", key)
	if err != nil || ok || payload != nil {
		t.Fatalf("await released-empty: ok=%v err=%v payload=%q, want plain miss", ok, err, payload)
	}
}

// TestAwaitClaimedStaleTakeover covers the crashed owner: a claim older
// than the staleness threshold is removed and the wait resolves as a
// miss, so waiters can no longer be parked forever.
func TestAwaitClaimedStaleTakeover(t *testing.T) {
	a, b := twoStores(t)
	key := []byte("cold")
	if c, err := a.Claim("cycles", key); err != nil || c == nil {
		t.Fatal(err)
	}
	// Age the claim file past the threshold, as a crashed owner's would.
	path := b.ClaimPath("cycles", key)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	old := info.ModTime().Add(-2 * DefaultClaimStaleAfter)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	payload, ok, err := b.AwaitClaimed(context.Background(), "cycles", key)
	if err != nil || ok || payload != nil {
		t.Fatalf("await stale: ok=%v err=%v payload=%q, want takeover miss", ok, err, payload)
	}
	if b.Stats().ClaimTakeovers != 1 {
		t.Fatalf("stats %+v, want one takeover", b.Stats())
	}
	if _, serr := os.Stat(b.ClaimPath("cycles", key)); !os.IsNotExist(serr) {
		t.Fatalf("stale claim file still present (err=%v)", serr)
	}
	// The key is claimable again.
	if c, err := b.Claim("cycles", key); err != nil || c == nil {
		t.Fatalf("re-claim after takeover: %v %v", c, err)
	}
}

func TestAwaitClaimedCtxCanceled(t *testing.T) {
	a, b := twoStores(t)
	key := []byte("cold")
	if c, err := a.Claim("cycles", key); err != nil || c == nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, ok, err := b.AwaitClaimed(ctx, "cycles", key)
	if ok || err == nil {
		t.Fatalf("await with canceled ctx: ok=%v err=%v, want ctx error", ok, err)
	}
}

// TestClaimFilesInvisibleToStats pins the extension split: claim files
// must not be confused with entries by the stats walk.
func TestClaimFilesInvisibleToStats(t *testing.T) {
	a := openT(t, RW)
	key := []byte("cold")
	c, err := a.Claim("cycles", key)
	if err != nil || c == nil {
		t.Fatal(err)
	}
	a.Save("cycles", key, []byte("v"))
	st := a.Stats()
	if st.DiskEntries != 1 {
		t.Fatalf("stats count the claim file: %+v", st)
	}
	// The claim guards the key, not the entry file: it still blocks
	// rivals after the entry lands.
	if c2, err := a.Claim("cycles", key); err != nil || c2 != nil {
		t.Fatalf("claim should still be held: %v %v", c2, err)
	}
	c.Release()
}
