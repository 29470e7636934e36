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

// openRuntime opens a store over dir and builds a runtime over it in the
// given fast-forward mode, with cold point caches.
func openRuntime(t *testing.T, dir string, mode memostore.Mode, ff platform.FFMode) (*memostore.Store, *Runtime) {
	t.Helper()
	s, err := memostore.Open(dir, mode)
	if err != nil {
		t.Fatal(err)
	}
	return s, NewRuntime(platform.NewMemoPlane(s, 0), ff, 0)
}

// TestPointMemoPersists: over an rw store a cold point simulates once
// and is written once, and a fresh ro store over the same directory
// serves the same bits from disk without simulating.
func TestPointMemoPersists(t *testing.T) {
	dir := t.TempDir()
	key := []byte("cold-point")
	computes := 0
	simulate := func() (uint64, error) { computes++; return 0x5eed, nil }

	rw, rt := openRuntime(t, dir, memostore.RW, platform.FFOn)
	got, err := rt.pointMemo("sweep", key, simulate)
	if err != nil || got != 0x5eed || computes != 1 {
		t.Fatalf("cold point: got=%#x err=%v computes=%d", got, err, computes)
	}
	if st := rw.Stats(); st.Writes != 1 || st.Misses != 1 {
		t.Fatalf("cold point store stats %+v: want 1 miss, 1 write", st)
	}

	ro, rt := openRuntime(t, dir, memostore.RO, platform.FFOn)
	got, err = rt.pointMemo("sweep", key, simulate)
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
	rw, _ := openRuntime(t, dir, memostore.RW, platform.FFOn)
	rw.Save("sweep", key, stored[:])

	ro, rt := openRuntime(t, dir, memostore.RO, platform.FFVerify)
	computes := 0
	got, err := rt.pointMemo("sweep", key, func() (uint64, error) { computes++; return 42, nil })
	if err != nil || got != 42 || computes != 1 {
		t.Fatalf("verify over stored point: got=%d err=%v computes=%d", got, err, computes)
	}
	if st := ro.Stats(); st.Hits == 0 {
		t.Fatalf("verify never compared against the stored entry: %+v", st)
	}
	if _, err := rt.pointMemo("sweep", key, func() (uint64, error) { return 43, nil }); err == nil {
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
	o := SweepOptions{Lo: 600 * sim.Microsecond, Hi: 2 * sim.Millisecond, Step: 200 * sim.Microsecond, CyclesPerPoint: 1}

	rw, rt := openRuntime(t, dir, memostore.RW, platform.FFOn)
	if _, _, err := rt.SweepBreakEven(base, opt, o); err != nil {
		t.Fatal(err)
	}
	planted := 0
	for _, r := range workload.SweepResidencies(o.Lo, o.Hi, o.Step) {
		key := pointDiskKey(platform.CanonicalConfig(base), r, o.CyclesPerPoint)
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

	ro, rt := openRuntime(t, dir, memostore.RO, platform.FFOn)
	if _, _, err := rt.SweepBreakEven(base, opt, o); err != nil {
		t.Fatalf("plain ro run must trust the store: %v", err)
	}
	if _, _, err := NewRuntime(platform.NewMemoPlane(ro, 0), platform.FFVerify, 0).SweepBreakEven(base, opt, o); err == nil || !strings.Contains(err.Error(), "point diverged from persistent memo") {
		t.Fatalf("verify accepted a tampered sweep point (err=%v)", err)
	}
}
