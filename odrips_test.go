package odrips

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"odrips/internal/experiments"
)

// openRuntime opens the runtime the examples run on and flushes it when
// the test ends.
func openRuntime(t *testing.T) *Runtime {
	t.Helper()
	rt, err := OpenRuntime("", "", FFOn, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Flush)
	return rt
}

// TestPublicAPIEndToEnd exercises the facade the way the examples do.
func TestPublicAPIEndToEnd(t *testing.T) {
	rt := openRuntime(t)
	base, err := rt.NewPlatform(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := base.RunCycles(FixedCycles(2, 0, 30*Second))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := rt.NewPlatform(ODRIPSConfig())
	if err != nil {
		t.Fatal(err)
	}
	optRes, err := opt.RunCycles(FixedCycles(2, 0, 30*Second))
	if err != nil {
		t.Fatal(err)
	}
	red := 100 * (baseRes.AvgPowerMW - optRes.AvgPowerMW) / baseRes.AvgPowerMW
	if math.Abs(red-22) > 1.5 {
		t.Fatalf("ODRIPS reduction via public API = %.1f%%, want ~22%%", red)
	}
	be, err := BreakEven(baseRes.CycleEnergy, optRes.CycleEnergy)
	if err != nil {
		t.Fatal(err)
	}
	if ms := be.Milliseconds(); ms < 5.5 || ms > 7.5 {
		t.Fatalf("break-even = %.2f ms, want ~6.5", ms)
	}
}

func TestPublicWorkloadGenerators(t *testing.T) {
	cs := ConnectedStandby(5, 1)
	if len(cs) != 5 {
		t.Fatal("ConnectedStandby wrong length")
	}
	p, err := openRuntime(t).NewPlatform(ODRIPSConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Mixed realistic workload must run clean through the facade.
	res, err := p.RunCycles(cs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 5 || res.AvgPowerMW <= 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestPublicTableRenders(t *testing.T) {
	if s := Table1().String(); len(s) < 100 {
		t.Fatal("Table1 render too short")
	}
}

// TestOpenRuntimeRejectsUnusedStoreDir: a -memocachedir without a store
// mode would go unused, so OpenRuntime refuses it, naming the flag,
// instead of running storeless; the directory is never created.
func TestOpenRuntimeRejectsUnusedStoreDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "xx")
	for _, mode := range []string{"", "off"} {
		rt, err := OpenRuntime(mode, dir, FFOn, 0)
		if err == nil || !strings.Contains(err.Error(), "-memocachedir") {
			t.Errorf("OpenRuntime(%q, dir): runtime %v, error %v; want an error naming -memocachedir", mode, rt, err)
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("rejected store directory exists: %v", err)
	}
	rt, err := OpenRuntime("rw", dir, FFOn, 0)
	if err != nil || rt.Store() == nil {
		t.Fatalf("OpenRuntime(rw, dir): store %v, error %v", rt.Store(), err)
	}
}

// TestFleetJobsShareTheRuntimePlane: fleet jobs on one runtime share its
// memo plane, even a storeless one that an earlier experiment filled. A
// repeated job simulates no cycle, and neither job's aggregates differ
// from a fresh runtime's.
func TestFleetJobsShareTheRuntimePlane(t *testing.T) {
	if testing.Short() {
		t.Skip("platform runs in -short mode")
	}
	spec := FleetSpec{
		Name:    "reuse",
		Devices: 12,
		Horizon: 120 * Second,
		Shards:  3,
		Spread: FleetSpread{
			DriftPPB:    []int64{0, 40},
			BatteryMWh:  []float64{30000, 36000},
			JitterSteps: []Duration{0, 250 * Millisecond},
		},
	}
	aggJSON := func(rep *FleetReport) string {
		t.Helper()
		b, err := json.Marshal(rep.Aggregates)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	fresh, err := Fleet(experiments.NewRuntime(nil, FFOn, 0), spec)
	if err != nil {
		t.Fatal(err)
	}
	want := aggJSON(fresh)

	rt := experiments.NewRuntime(nil, FFOn, 0)
	if _, err := rt.Fig6b(); err != nil {
		t.Fatal(err)
	}
	var reps [2]*FleetReport
	for i := range reps {
		if reps[i], err = Fleet(rt, spec); err != nil {
			t.Fatal(err)
		}
		if got := aggJSON(reps[i]); got != want {
			t.Errorf("job %d on a shared runtime: aggregates diverged from a fresh runtime's:\n got %s\nwant %s", i+1, got, want)
		}
	}
	if reps[0].Memo.SimulatedCycles == 0 {
		t.Fatal("the first job simulated nothing; the spec cannot show reuse")
	}
	if n := reps[1].Memo.SimulatedCycles; n != 0 {
		t.Errorf("the repeated job simulated %d cycles; want 0 from the runtime's plane", n)
	}
}
