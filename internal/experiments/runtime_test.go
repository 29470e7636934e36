package experiments

import (
	"fmt"
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
	a := NewRuntime(platform.NewMemoPlane(store, 0), platform.FFOn, 1)
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

// TestDefaultRuntimeFollowsStore: the default runtime's plane is over
// the default store (storeless while none is installed), is one runtime
// per store, is rebuilt when the store changes identity, and its plane
// is shared by concurrent runs. The runs write nothing; one Flush
// writes their class once and the op table's geometry once.
func TestDefaultRuntimeFollowsStore(t *testing.T) {
	t.Cleanup(func() { memostore.SetDefault(nil) })
	planeNone := Default().plane
	if planeNone.Store() != nil || Default().plane != planeNone {
		t.Fatal("no single storeless default plane without a default store")
	}
	storeA, err := memostore.Open(t.TempDir(), memostore.RW)
	if err != nil {
		t.Fatal(err)
	}
	memostore.SetDefault(storeA)
	planeA := Default().plane
	if planeA == planeNone || planeA.Store() != storeA || Default().plane != planeA {
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
	if st := storeA.Stats(); st.Writes != 0 {
		t.Fatalf("default-runtime runs wrote the store themselves: %+v", st)
	}
	Default().Flush()
	if st := storeA.Stats(); st.Writes != 2 {
		t.Fatalf("flushing one dirty class and the op table's one geometry made %d writes, want 2: %+v", st.Writes, st)
	}

	storeB, err := memostore.Open(t.TempDir(), memostore.RW)
	if err != nil {
		t.Fatal(err)
	}
	memostore.SetDefault(storeB)
	planeB := Default().plane
	if planeB == planeA || planeB.Store() != storeB {
		t.Fatal("swapping the default store did not rebuild the default plane")
	}
	memostore.SetDefault(nil)
	if pl := Default().plane; pl == planeB || pl.Store() != nil {
		t.Fatal("default plane outlived its store")
	}
}

// TestMemoStatsShowsStorelessPlane: a storeless runtime still has a
// plane, which its runs join, and -memostats' plane row shows it.
func TestMemoStatsShowsStorelessPlane(t *testing.T) {
	rt := NewRuntime(nil, platform.FFOn, 0)
	if _, err := rt.Fig2(); err != nil {
		t.Fatal(err)
	}
	var row []string
	for _, r := range rt.MemoStats().Rows {
		if r[0] == "cycle memo plane" {
			row = r
		}
	}
	if row == nil {
		t.Fatal("no cycle memo plane row")
	}
	var classes, maxClasses, records, opRecords, opsRun, evictions int
	if _, err := fmt.Sscanf(row[3], "%d/%d classes", &classes, &maxClasses); err != nil {
		t.Fatalf("size cell %q: %v", row[3], err)
	}
	if _, err := fmt.Sscanf(row[4], "%d records, %d op records, %d run, %d class evictions", &records, &opRecords, &opsRun, &evictions); err != nil {
		t.Fatalf("detail cell %q: %v", row[4], err)
	}
	if classes < 1 || records < 1 {
		t.Errorf("storeless plane after Fig2: %d classes, %d records; want at least 1 of each (row %q)", classes, records, row)
	}
	// One MEE region geometry: at most 3 records, each run for real once.
	if opRecords > 3 || opsRun != opRecords {
		t.Errorf("storeless plane after Fig2: %d op records after %d real ops; want at most 3, each run once (row %q)", opRecords, opsRun, row)
	}
}

// memoStatsRow returns rt's -memostats row of layer.
func memoStatsRow(t *testing.T, rt *Runtime, layer string) []string {
	t.Helper()
	for _, r := range rt.MemoStats().Rows {
		if r[0] == layer {
			return r
		}
	}
	t.Fatalf("no %q row", layer)
	return nil
}

// TestMemoStatsCountsStoreLoads: a point row counts the points its class
// loaded from the store, so over a filled store it reads every miss
// loaded, and the plane row counts the MEE ops run for real: a cold rw
// run of wake latency and coalescing runs the 3 ops of their one region
// geometry, and a warm ro rerun loads all 80 samples and 6 rows and
// builds no platform.
func TestMemoStatsCountsStoreLoads(t *testing.T) {
	dir := t.TempDir()
	run := func(rt *Runtime) {
		t.Helper()
		if _, err := rt.WakeLatency(); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.WakeCoalescing(); err != nil {
			t.Fatal(err)
		}
		rt.Flush()
	}
	_, cold := openRuntime(t, dir, memostore.RW, platform.FFOn)
	run(cold)
	_, warm := openRuntime(t, dir, memostore.RO, platform.FFOn)
	run(warm)
	for _, c := range []struct {
		rt   *Runtime
		name string
		row  string
		want []string
	}{
		{cold, "cold", "wake latency samples", []string{"wake latency samples", "0", "80", "80/256", "0 loaded, 0 evictions"}},
		{cold, "cold", "coalescing rows", []string{"coalescing rows", "0", "6", "6/64", "0 loaded, 0 evictions"}},
		{warm, "warm", "wake latency samples", []string{"wake latency samples", "0", "80", "80/256", "80 loaded, 0 evictions"}},
		{warm, "warm", "coalescing rows", []string{"coalescing rows", "0", "6", "6/64", "6 loaded, 0 evictions"}},
	} {
		if got := memoStatsRow(t, c.rt, c.row); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s run: row %q, want %q", c.name, got, c.want)
		}
	}
	var records, opRecords, opsRun, evictions int
	for _, c := range []struct {
		rt             *Runtime
		name           string
		opRecords, run int
	}{{cold, "cold", 3, 3}, {warm, "warm", 0, 0}} {
		row := memoStatsRow(t, c.rt, "cycle memo plane")
		if _, err := fmt.Sscanf(row[4], "%d records, %d op records, %d run, %d class evictions", &records, &opRecords, &opsRun, &evictions); err != nil {
			t.Fatalf("detail cell %q: %v", row[4], err)
		}
		if opRecords != c.opRecords || opsRun != c.run {
			t.Errorf("%s run: plane row %q, want %d op records, %d run", c.name, row, c.opRecords, c.run)
		}
	}
}

// TestMemoStatsShowsTemplates: every platform a runtime builds for one
// seed shares one template, whatever its configuration, and -memostats'
// template row says so.
func TestMemoStatsShowsTemplates(t *testing.T) {
	rt := NewRuntime(nil, platform.FFOn, 0)
	for _, cfg := range []platform.Config{platform.ODRIPSConfig(), platform.DefaultConfig(), platform.ODRIPSConfig()} {
		if _, err := rt.NewPlatform(cfg); err != nil {
			t.Fatal(err)
		}
	}
	var row []string
	for _, r := range rt.MemoStats().Rows {
		if r[0] == "platform templates" {
			row = r
		}
	}
	if row == nil {
		t.Fatal("no platform templates row")
	}
	var built, reused, evicted int
	if _, err := fmt.Sscanf(row[4], "%d built, %d reused, %d evicted", &built, &reused, &evicted); err != nil {
		t.Fatalf("detail cell %q: %v", row[4], err)
	}
	if built != 1 || reused != 2 || evicted != 0 {
		t.Errorf("three platforms of one seed: row %q; want 1 built, 2 reused, 0 evicted", row)
	}
}
