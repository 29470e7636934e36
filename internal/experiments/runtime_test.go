package experiments

import (
	"reflect"
	"sync"
	"testing"

	"odrips/internal/memostore"
	"odrips/internal/platform"
	"odrips/internal/sim"
	"odrips/internal/workload"
)

// runtimeOutput is what TestRuntimesIsolated compares across runtimes.
type runtimeOutput struct {
	fig2 *Fig2Result
	be   sim.Duration
	ok   bool
}

func runOnRuntime(rt *Runtime) (runtimeOutput, error) {
	var out runtimeOutput
	var err error
	if out.fig2, err = rt.Fig2(); err != nil {
		return out, err
	}
	o := SweepOptions{Lo: 600 * sim.Microsecond, Hi: 10 * sim.Millisecond, Step: sim.Millisecond, CyclesPerPoint: 1}
	out.be, out.ok, err = rt.SweepBreakEven(platform.DefaultConfig(), platform.ODRIPSConfig(), o)
	return out, err
}

// TestRuntimesIsolated runs two runtimes with different stores, modes
// and worker counts side by side in one process: their outputs agree,
// and each one's counters see only its own calls.
func TestRuntimesIsolated(t *testing.T) {
	if testing.Short() {
		t.Skip("platform sweeps in -short mode")
	}
	store, err := memostore.Open(t.TempDir(), memostore.RW)
	if err != nil {
		t.Fatal(err)
	}
	a := NewRuntime(store, platform.FFOn, 1)
	b := NewRuntime(nil, platform.FFOff, 4)

	var outA, outB runtimeOutput
	var wg sync.WaitGroup
	for _, r := range []struct {
		rt  *Runtime
		out *runtimeOutput
	}{{a, &outA}, {b, &outB}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := runOnRuntime(r.rt)
			if err != nil {
				t.Error(err)
			}
			*r.out = out
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if !reflect.DeepEqual(outA, outB) {
		t.Fatalf("runtimes disagree:\nA: %+v\nB: %+v", outA, outB)
	}
	if st := a.Store().Stats(); st.Writes == 0 {
		t.Errorf("runtime A persisted nothing: %+v", st)
	}
	if st := b.Store().Stats(); st != (memostore.Stats{}) {
		t.Errorf("storeless runtime B has store counters: %+v", st)
	}
	// Each runtime's point caches count only its own calls: one sweep
	// misses each configuration's transition time and each grid point's
	// two halves exactly once, and hits nothing.
	for _, r := range []struct {
		name string
		rt   *Runtime
	}{{"A", a}, {"B", b}} {
		pc := r.rt.PointCacheStats()
		if pc.Trans.Misses != 2 || pc.Trans.Hits != 0 || pc.Sweep.Hits != 0 ||
			pc.Sweep.Misses == 0 || pc.Sweep.Misses != uint64(pc.SweepLen) {
			t.Errorf("runtime %s's point caches counted calls it did not make: %+v", r.name, pc)
		}
	}
}

// TestDefaultRuntimeFollowsStore: the default runtime has a plane only
// while a default store is installed, is one runtime per store, is
// rebuilt when the store changes identity, and its plane is shared by
// concurrent runs, each of which flushes the records it discovered.
func TestDefaultRuntimeFollowsStore(t *testing.T) {
	t.Cleanup(func() { memostore.SetDefault(nil) })
	if Default().plane != nil {
		t.Fatal("default plane exists without a default store")
	}
	storeA, err := memostore.Open(t.TempDir(), memostore.RW)
	if err != nil {
		t.Fatal(err)
	}
	memostore.SetDefault(storeA)
	planeA := Default().plane
	if planeA == nil || Default().plane != planeA {
		t.Fatal("default store has no single default plane")
	}

	solo := platform.ODRIPSConfig()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := solo
			cfg.Seed = int64(i + 1) // one memo class across seeds
			p, err := Default().NewPlatform(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := p.RunCycles(workload.Fixed(40, 2*sim.Millisecond, 30*sim.Second)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if st := planeA.Stats(); st.Classes != 1 || st.Records == 0 {
		t.Fatalf("concurrent default-runtime runs did not share the default plane: %+v", st)
	}
	if st := storeA.Stats(); st.Writes == 0 {
		t.Fatalf("default-runtime runs flushed nothing: %+v", st)
	}

	storeB, err := memostore.Open(t.TempDir(), memostore.RW)
	if err != nil {
		t.Fatal(err)
	}
	memostore.SetDefault(storeB)
	if planeB := Default().plane; planeB == nil || planeB == planeA {
		t.Fatal("swapping the default store did not rebuild the default plane")
	}
	memostore.SetDefault(nil)
	if Default().plane != nil {
		t.Fatal("default plane outlived its store")
	}
}
