package experiments

import (
	"encoding/binary"
	"fmt"
	"reflect"
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
	key := pointKey{cfg: platform.ODRIPSConfig(), residency: sim.Millisecond, cycles: 1}
	computes := 0
	simulate := func() (uint64, error) { computes++; return 0x5eed, nil }

	rw, rt := openRuntime(t, dir, memostore.RW, platform.FFOn)
	got, _, err := sweepMemo.Get(rt, key, simulate)
	if err != nil || got != 0x5eed || computes != 1 {
		t.Fatalf("cold point: got=%#x err=%v computes=%d", got, err, computes)
	}
	if st := rw.Stats(); st.Writes != 1 || st.Misses != 1 {
		t.Fatalf("cold point store stats %+v: want 1 miss, 1 write", st)
	}

	ro, rt := openRuntime(t, dir, memostore.RO, platform.FFOn)
	got, _, err = sweepMemo.Get(rt, key, simulate)
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
	key := pointKey{cfg: platform.ODRIPSConfig(), residency: sim.Millisecond, cycles: 1}
	var stored [8]byte
	binary.LittleEndian.PutUint64(stored[:], 42)
	rw, _ := openRuntime(t, dir, memostore.RW, platform.FFOn)
	rw.Save("sweep", key.StoreKey(), stored[:])

	ro, rt := openRuntime(t, dir, memostore.RO, platform.FFVerify)
	computes := 0
	got, _, err := sweepMemo.Get(rt, key, func() (uint64, error) { computes++; return 42, nil })
	if err != nil || got != 42 || computes != 1 {
		t.Fatalf("verify over stored point: got=%d err=%v computes=%d", got, err, computes)
	}
	if st := ro.Stats(); st.Hits == 0 {
		t.Fatalf("verify never compared against the stored entry: %+v", st)
	}
	rt.pointCache("sweep").Reset() // the in-process cache serves the first result: compare against the store again
	if _, _, err := sweepMemo.Get(rt, key, func() (uint64, error) { return 43, nil }); err == nil {
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
		key := pointKey{cfg: platform.CanonicalConfig(base), residency: r, cycles: o.CyclesPerPoint}.StoreKey()
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

// fillEveryField sets v — a struct's every field, or v itself — to
// distinct nonzero values by reflection.
func fillEveryField(t *testing.T, v reflect.Value, seed int) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			fillEveryField(t, v.Field(i), seed+i+1)
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(1000 + seed))
	case reflect.Uint64:
		v.SetUint(uint64(2000 + seed))
	case reflect.Float64:
		v.SetFloat(0.25 + float64(seed))
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", seed))
	default:
		t.Fatalf("%v: kind %v has no filler; extend this test and the codec", v.Type(), v.Kind())
	}
}

// checkCodec round-trips a fully set value through m's codec, so a
// field the codec does not carry fails, and checks the decoder takes
// only canonical payloads.
func checkCodec[K MemoKey, T any](t *testing.T, m PointMemo[K, T]) {
	t.Helper()
	var v T
	fillEveryField(t, reflect.ValueOf(&v).Elem(), 0)
	payload := m.Encode(v)
	got, ok := m.Decode(payload)
	if !ok || !reflect.DeepEqual(got, v) {
		t.Fatalf("%s round trip: ok=%v\n got %+v\nwant %+v", m.Class, ok, got, v)
	}
	if again := m.Encode(got); string(again) != string(payload) {
		t.Errorf("%s: re-encoding a decoded value changed its bytes", m.Class)
	}
	for _, bad := range [][]byte{payload[:len(payload)-1], append(append([]byte(nil), payload...), 0)} {
		if _, ok := m.Decode(bad); ok {
			t.Errorf("%s: decoder accepted a %d-byte payload (canonical %d)", m.Class, len(bad), len(payload))
		}
	}
}

// TestPointMemoCodecsCoverEveryField runs checkCodec over every memo
// class of this package; sweep and trans keep their one little-endian
// word.
func TestPointMemoCodecsCoverEveryField(t *testing.T) {
	checkCodec(t, sweepMemo)
	checkCodec(t, transMemo)
	checkCodec(t, wakeLatMemo)
	checkCodec(t, coalesceMemo)
	checkCodec(t, meeCacheMemo)
	for _, m := range []PointMemo[pointKey, uint64]{sweepMemo, transMemo} {
		if b := m.Encode(0x0102030405060708); len(b) != 8 || binary.LittleEndian.Uint64(b) != 0x0102030405060708 {
			t.Errorf("%s payload %x: want the 8-byte little-endian word", m.Class, b)
		}
	}
	for _, pc := range pointClasses {
		if _, err := pointCacheOf[pointKey, uint64](NewRuntime(nil, platform.FFOn, 0), pc.class); err != nil {
			t.Errorf("class %q: %v", pc.class, err)
		}
	}
	if _, err := pointCacheOf[pointKey, uint64](NewRuntime(nil, platform.FFOn, 0), "nosuch"); err == nil {
		t.Error("an unknown memo class got a cache")
	}
}
