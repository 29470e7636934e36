package experiments

import (
	"encoding/binary"
	"strings"
	"testing"

	"odrips/internal/memostore"
	"odrips/internal/platform"
	"odrips/internal/sim"
	"odrips/internal/workload"
)

// withPointStore installs a default store over dir for the test, with
// cold point caches, and tears the process defaults back down afterwards.
func withPointStore(t *testing.T, dir string, mode memostore.Mode) *memostore.Store {
	t.Helper()
	s, err := memostore.Open(dir, mode)
	if err != nil {
		t.Fatal(err)
	}
	memostore.SetDefault(s)
	ResetPointCache()
	t.Cleanup(func() {
		memostore.SetDefault(nil)
		platform.SetDefaultFastForward(platform.FFOn)
		ResetPointCache()
	})
	return s
}

// TestPointMemoPersists: over an rw store a cold point simulates once
// and is written once, and a fresh ro store over the same directory
// serves the same bits from disk without simulating.
func TestPointMemoPersists(t *testing.T) {
	dir := t.TempDir()
	key := []byte("cold-point")
	computes := 0
	simulate := func() (uint64, error) { computes++; return 0x5eed, nil }

	rw := withPointStore(t, dir, memostore.RW)
	got, err := pointMemo("sweep", key, simulate)
	if err != nil || got != 0x5eed || computes != 1 {
		t.Fatalf("cold point: got=%#x err=%v computes=%d", got, err, computes)
	}
	if st := rw.Stats(); st.Writes != 1 || st.Misses != 1 {
		t.Fatalf("cold point store stats %+v: want 1 miss, 1 write", st)
	}

	ro := withPointStore(t, dir, memostore.RO)
	got, err = pointMemo("sweep", key, simulate)
	if err != nil || got != 0x5eed || computes != 1 {
		t.Fatalf("stored point: got=%#x err=%v computes=%d", got, err, computes)
	}
	if st := ro.Stats(); st.Hits != 1 {
		t.Fatalf("stored point store stats %+v: want 1 hit", st)
	}
}

// TestPointMemoVerifyRecomputesStored: under -fastforward=verify a point
// served by a read-only store is still recomputed and bit-compared,
// never trusted.
func TestPointMemoVerifyRecomputesStored(t *testing.T) {
	dir := t.TempDir()
	key := []byte("k")
	var stored [8]byte
	binary.LittleEndian.PutUint64(stored[:], 42)
	rw := withPointStore(t, dir, memostore.RW)
	rw.Save("sweep", key, stored[:])

	ro := withPointStore(t, dir, memostore.RO)
	platform.SetDefaultFastForward(platform.FFVerify)
	computes := 0
	got, err := pointMemo("sweep", key, func() (uint64, error) { computes++; return 42, nil })
	if err != nil || got != 42 || computes != 1 {
		t.Fatalf("verify over stored point: got=%d err=%v computes=%d", got, err, computes)
	}
	if st := ro.Stats(); st.Hits == 0 {
		t.Fatalf("verify never compared against the stored entry: %+v", st)
	}
	if _, err := pointMemo("sweep", key, func() (uint64, error) { return 43, nil }); err == nil {
		t.Fatal("verify accepted a point that diverged from the stored entry")
	}
}

// TestPointMemoVerifyDetectsTamper plants sweep points with a valid store
// envelope but flipped bits and checks that SweepBreakEven over a
// read-only store under -fastforward=verify fails instead of trusting
// them.
func TestPointMemoVerifyDetectsTamper(t *testing.T) {
	dir := t.TempDir()
	base, opt := platform.DefaultConfig(), platform.ODRIPSConfig()
	o := SweepOptions{Lo: 600 * sim.Microsecond, Hi: 2 * sim.Millisecond, Step: 200 * sim.Microsecond, CyclesPerPoint: 1, Workers: 1}

	rw := withPointStore(t, dir, memostore.RW)
	if _, _, err := SweepBreakEven(base, opt, o); err != nil {
		t.Fatal(err)
	}
	planted := 0
	for _, r := range workload.SweepResidencies(o.Lo, o.Hi, o.Step) {
		key := pointDiskKey(canonicalPointConfig(base), r, o.CyclesPerPoint)
		payload, ok, err := rw.Load("sweep", key)
		if err != nil || !ok {
			continue
		}
		bad := append([]byte(nil), payload...)
		bad[0] ^= 0x01
		rw.Save("sweep", key, bad)
		planted++
	}
	if planted == 0 {
		t.Fatal("the sweep persisted no base points to tamper with")
	}

	withPointStore(t, dir, memostore.RO)
	if _, _, err := SweepBreakEven(base, opt, o); err != nil {
		t.Fatalf("plain ro run must trust the store: %v", err)
	}
	ResetPointCache()
	platform.SetDefaultFastForward(platform.FFVerify)
	if _, _, err := SweepBreakEven(base, opt, o); err == nil || !strings.Contains(err.Error(), "point diverged from persistent memo") {
		t.Fatalf("verify accepted a tampered sweep point (err=%v)", err)
	}
}
