package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"odrips/internal/battery"
	"odrips/internal/experiments"
	"odrips/internal/memostore"
	"odrips/internal/platform"
	"odrips/internal/sim"
)

// mixedSpec is a small but fully featured fleet: two drift populations
// (two memo classes), three jitter steps, two battery capacities, one
// faulted device — seven run classes across 48 devices, cheap enough to
// also simulate naively device-by-device for the equivalence test.
func mixedSpec() Spec {
	return Spec{
		Name:    "mixed",
		Devices: 48,
		Horizon: 10 * sim.Minute,
		Shards:  4,
		Spread: Spread{
			DriftPPB:    []int64{0, 40},
			BatteryMWh:  []float64{36000, 30000},
			JitterSteps: []sim.Duration{0, 250 * sim.Millisecond, 500 * sim.Millisecond},
			Faults:      []DeviceFaults{{Device: 5, Plan: "wake@1.3"}},
		},
	}
}

func mustAggJSON(t *testing.T, rep *Report) string {
	t.Helper()
	b, err := json.Marshal(rep.Aggregates)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func mustReportJSON(t *testing.T, rep *Report) string {
	t.Helper()
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFleetMatchesNaiveSimulation is the engine's ground truth: the
// fleet aggregates must be byte-identical to simulating every device
// individually, with no plane and no dedup, and folding the results
// through the same aggregation. This pins all three collapse layers
// (run dedup, cross-device replay, fast-forward) as pure optimizations.
func TestFleetMatchesNaiveSimulation(t *testing.T) {
	s := mixedSpec().withDefaults()

	rep, err := Run(s, nil)
	if err != nil {
		t.Fatal(err)
	}

	classes := formattedClasses(s)
	runs := make([]runOutcome, len(classes.runs))
	for r := range classes.runs {
		out, err := runDevice(experiments.NewRuntime(nil, platform.FFOn, 0), s, &classes.runs[r]) // solo: a fresh plane per device
		if err != nil {
			t.Fatalf("device %d solo: %v", classes.runs[r].rep, err)
		}
		runs[r] = out
	}
	naive, err := aggregate(s, &classes, runs)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := mustAggJSON(t, rep), mustAggJSON(t, naive); got != want {
		t.Errorf("fleet aggregates diverged from naive per-device simulation:\nfleet: %s\nnaive: %s", got, want)
	}
	if rep.Memo.RunClasses != 7 || rep.Memo.MemoClasses != 2 {
		t.Errorf("class structure: %d run, %d memo classes (want 7, 2)",
			rep.Memo.RunClasses, rep.Memo.MemoClasses)
	}
}

// formattedClasses classifies a fleet the way the engine once did: each
// device's config, cycle shape and fault plan derived from the spec
// independently of expand, and its identity the formatted strings
// platform.MemoClassKey and "<memo>|active=…|idle=…|n=…|plan=…". It is
// the oracle for expand's value-keyed class table.
func formattedClasses(s Spec) classTable {
	base, _ := baseConfig(s.Preset)
	plans := map[int]string{}
	for _, df := range s.Spread.Faults {
		plans[df.Device] = df.Plan
	}
	t := classTable{devices: make([]device, s.Devices)}
	memoOf := map[string]int{}
	runOf := map[string]int{}
	for i := range t.devices {
		cfg := base
		cfg.Seed = s.Spread.SeedBase + int64(i)*s.Spread.SeedStride
		if n := len(s.Spread.DriftPPB); n > 0 {
			cfg.XtalSlowPPB += s.Spread.DriftPPB[i%n]
		}
		idle := s.WakePeriod
		if n := len(s.Spread.JitterSteps); n > 0 {
			idle += s.Spread.JitterSteps[i%n]
		}
		cycles := int(s.Horizon / (s.Active + idle))
		if cycles < 1 {
			cycles = 1
		}
		pack := battery.Tablet()
		if n := len(s.Spread.BatteryMWh); n > 0 {
			pack.CapacityMWh = s.Spread.BatteryMWh[i%n]
		}
		memoKey := platform.MemoClassKey(cfg)
		runKey := fmt.Sprintf("%s|active=%d|idle=%d|n=%d|plan=%s",
			memoKey, int64(s.Active), int64(idle), cycles, plans[i])

		m, ok := memoOf[memoKey]
		if !ok {
			m = len(t.memos)
			memoOf[memoKey] = m
			t.memos = append(t.memos, memoClass{key: memoKey, run: -1})
		}
		r, ok := runOf[runKey]
		if !ok {
			r = len(t.runs)
			runOf[runKey] = r
			t.runs = append(t.runs, runClass{rep: i, cfg: cfg, idle: idle, cycles: cycles, plan: plans[i], memo: m})
		}
		if t.memos[m].run < 0 {
			t.memos[m].run = r
		}
		t.devices[i] = device{run: r, pack: pack, shard: i * s.Shards / s.Devices}
	}
	return t
}

// TestFleetClassTableMatchesFormattedKeys: the value-keyed class table
// partitions devices exactly as the formatted string keys do, with the
// same lowest-index representatives, configs, shapes, plans and memo keys.
func TestFleetClassTableMatchesFormattedKeys(t *testing.T) {
	spread := Spec{
		Devices: 60,
		Shards:  5,
		Spread: Spread{
			SeedStride:  3,
			DriftPPB:    []int64{0, 40, -25},
			JitterSteps: []sim.Duration{0, 250 * sim.Millisecond},
			BatteryMWh:  []float64{36000, 30000, 28000, 20000},
		},
	}
	faulted := Spec{
		Devices: 20,
		Preset:  "baseline",
		Horizon: 3 * sim.Minute,
		Spread: Spread{
			JitterSteps: []sim.Duration{0, 500 * sim.Millisecond},
			Faults: []DeviceFaults{
				{Device: 0, Plan: "wake@1.3"},
				{Device: 7, Plan: "drift@1:1000000"},
				{Device: 9, Plan: "wake@1.3"},
			},
		},
	}
	for name, s := range map[string]Spec{"mixed": mixedSpec(), "spread": spread, "faulted": faulted} {
		s, err := s.Normalized()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, want := expand(s), formattedClasses(s)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: value-keyed table differs from the formatted-key oracle:\n got %+v\nwant %+v", name, got, want)
		}
		if len(got.runs) < 2 || len(got.memos) < 1 {
			t.Errorf("%s: degenerate oracle case: %d run, %d memo classes", name, len(got.runs), len(got.memos))
		}
	}
}

// TestFleetDeterminism: the whole report is byte-identical at any worker
// count, and the Aggregates section additionally at any shard count and
// fast-forward mode.
func TestFleetDeterminism(t *testing.T) {
	base := mixedSpec()

	ref, err := Run(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	refFull := mustReportJSON(t, ref)
	refAgg := mustAggJSON(t, ref)

	for _, workers := range []int{1, 3} {
		s := base
		s.Workers = workers
		rep, err := Run(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if mustReportJSON(t, rep) != refFull {
			t.Errorf("workers=%d: full report diverged", workers)
		}
	}
	for _, shards := range []int{1, 16, 48} {
		s := base
		s.Shards = shards
		rep, err := Run(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if mustAggJSON(t, rep) != refAgg {
			t.Errorf("shards=%d: aggregates diverged", shards)
		}
		if len(rep.Shards) != shards {
			t.Errorf("shards=%d: %d shard rows", shards, len(rep.Shards))
		}
	}
	for _, mode := range []platform.FFMode{platform.FFOff, platform.FFVerify, platform.FFOn} {
		rep, err := Exec(context.Background(), experiments.NewRuntime(nil, mode, 0), base, nil)
		if err != nil {
			t.Fatalf("fastforward=%v: %v", mode, err)
		}
		if mustAggJSON(t, rep) != refAgg {
			t.Errorf("fastforward=%v: aggregates diverged", mode)
		}
	}
}

// TestFleetHomogeneousHitRate is the acceptance scenario: a
// homogeneous-spread fleet (seeds and battery capacities vary, physics
// does not) collapses to one simulated run class, and the cross-device
// memo hit rate clears 90% with a wide margin.
func TestFleetHomogeneousHitRate(t *testing.T) {
	s := Spec{
		Name:    "homogeneous",
		Devices: 1000,
		Horizon: 10 * sim.Minute,
		Spread: Spread{
			SeedStride: 7,
			BatteryMWh: []float64{36000, 30000, 28000},
		},
	}
	rep, err := Run(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Memo.RunClasses != 1 || rep.Memo.MemoClasses != 1 {
		t.Fatalf("homogeneous fleet split: %d run, %d memo classes", rep.Memo.RunClasses, rep.Memo.MemoClasses)
	}
	if rep.Memo.CrossDeviceHitRatePct < 90 {
		t.Errorf("cross-device hit rate %.3f%% < 90%%", rep.Memo.CrossDeviceHitRatePct)
	}
	if rep.Memo.SimulatedRuns != 1 {
		t.Errorf("simulated %d runs for a one-class fleet", rep.Memo.SimulatedRuns)
	}
	// Battery spread must show up in the life distribution even though
	// only one device was simulated.
	if agg := rep.Aggregates; !(agg.BatteryLifeHours.Min < agg.BatteryLifeHours.Max) {
		t.Errorf("battery spread lost: %+v", agg.BatteryLifeHours)
	}
}

// TestFleetLoadHarness hammers one shared plane with many concurrent
// fleet jobs (two alternating specs sharing a memo class) and
// checks every job's aggregates against sequential golden runs. The CI
// fleet-smoke tier raises the job count via ODRIPS_FLEET_LOAD_JOBS and
// runs this under -race.
func TestFleetLoadHarness(t *testing.T) {
	jobs := 64
	if v := os.Getenv("ODRIPS_FLEET_LOAD_JOBS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("ODRIPS_FLEET_LOAD_JOBS=%q", v)
		}
		jobs = n
	}
	specs := []Spec{
		{Name: "load-a", Devices: 8, Horizon: 2 * sim.Minute},
		{Name: "load-b", Devices: 8, Horizon: 2 * sim.Minute,
			Spread: Spread{JitterSteps: []sim.Duration{250 * sim.Millisecond}}},
	}
	want := make([]string, len(specs))
	for i := range specs {
		rep, err := Run(specs[i], platform.NewMemoPlane(nil, 0))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = mustAggJSON(t, rep)
	}

	shared := platform.NewMemoPlane(nil, 0)
	const lanes = 8
	errs := make(chan error, lanes)
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for j := lane; j < jobs; j += lanes {
				i := j % len(specs)
				rep, err := Run(specs[i], shared)
				if err != nil {
					errs <- fmt.Errorf("job %d: %w", j, err)
					return
				}
				if got, err := json.Marshal(rep.Aggregates); err != nil || string(got) != want[i] {
					errs <- fmt.Errorf("job %d (%s): aggregates diverged under load", j, specs[i].Name)
					return
				}
			}
		}(lane)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// fleetStore opens one RW store handle over dir, emulating a process in
// the multi-process tests (claims and entries are file-based).
func fleetStore(t *testing.T, dir string) *memostore.Store {
	t.Helper()
	s, err := memostore.Open(dir, memostore.RW)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFleetSecondProcessRecomputesNothing is the sequential half of the
// cross-process contract: a second process over an already-warmed shared
// store serves every memo class from disk — zero claims, zero writes —
// and reports byte-identical aggregates.
func TestFleetSecondProcessRecomputesNothing(t *testing.T) {
	s := mixedSpec()
	ref, err := Run(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	refAgg := mustAggJSON(t, ref)

	dir := t.TempDir()
	storeA := fleetStore(t, dir)
	repA, err := Run(s, platform.NewMemoPlane(storeA, 0))
	if err != nil {
		t.Fatal(err)
	}
	if mustAggJSON(t, repA) != refAgg {
		t.Error("process A aggregates diverged from the plane-less run")
	}
	stA := storeA.Stats()
	if stA.Writes == 0 || stA.ClaimsOwned == 0 {
		t.Fatalf("cold process stats %+v: want writes and owned claims", stA)
	}

	storeB := fleetStore(t, dir)
	repB, err := Run(s, platform.NewMemoPlane(storeB, 0))
	if err != nil {
		t.Fatal(err)
	}
	if mustAggJSON(t, repB) != refAgg {
		t.Error("process B aggregates diverged")
	}
	stB := storeB.Stats()
	if stB.Writes != 0 || stB.ClaimsOwned != 0 {
		t.Fatalf("warm process re-did cold work: %+v", stB)
	}
	if stB.Hits == 0 {
		t.Fatalf("warm process never read the shared store: %+v", stB)
	}
}

// memoFiles reads every .memo entry in a store directory, by name.
func memoFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".memo" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

// TestFleetStoreFillIsScheduleIndependent: each memo class's run classes
// run in order on the live plane, so filling a store writes the same
// .memo bytes and reports the same full report at any worker count, and
// a rerun over the filled store with a fresh plane simulates nothing.
// The spec is mixedSpec without its fault plan: the memo stays off until
// an injection fires, so a faulted device simulates its first cycles on
// every run.
func TestFleetStoreFillIsScheduleIndependent(t *testing.T) {
	spec := mixedSpec()
	spec.Spread.Faults = nil
	var refFiles map[string]string
	var refFull, refAgg, refDir string
	for _, workers := range []int{1, 3, 8} {
		s := spec
		s.Workers = workers
		dir := t.TempDir()
		rep, err := Run(s, platform.NewMemoPlane(fleetStore(t, dir), 0))
		if err != nil {
			t.Fatal(err)
		}
		files, full := memoFiles(t, dir), mustReportJSON(t, rep)
		if len(files) != rep.Memo.MemoClasses {
			t.Fatalf("workers=%d: %d .memo files for %d memo classes", workers, len(files), rep.Memo.MemoClasses)
		}
		if refFiles == nil {
			refFiles, refFull, refAgg, refDir = files, full, mustAggJSON(t, rep), dir
			continue
		}
		if !reflect.DeepEqual(files, refFiles) {
			t.Errorf("workers=%d: filled store differs from workers=1", workers)
		}
		if full != refFull {
			t.Errorf("workers=%d: full report diverged", workers)
		}
	}

	ro, err := memostore.Open(refDir, memostore.RO)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(spec, platform.NewMemoPlane(ro, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Memo.SimulatedCycles != 0 {
		t.Errorf("rerun over the filled store simulated %d cycles", rep.Memo.SimulatedCycles)
	}
	if mustAggJSON(t, rep) != refAgg {
		t.Error("rerun aggregates diverged from the fill")
	}
}

// TestFleetWarmJobLoadsOnlyThroughPlane: a warm fleet job over a
// read-only default store touches the store only through its own plane —
// one load per class the plane did not already hold, every one a hit.
// No platform of the job loads on the side (the plane is the only
// in-process cycle cache, so nothing else may ask the store for cycles).
func TestFleetWarmJobLoadsOnlyThroughPlane(t *testing.T) {
	s := mixedSpec()
	s.Spread.SeedStride = 7
	dir := t.TempDir()
	fill, err := PlaneFor(s, fleetStore(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(s, fill); err != nil {
		t.Fatal(err)
	}

	ro, err := memostore.Open(dir, memostore.RO)
	if err != nil {
		t.Fatal(err)
	}
	plane, err := PlaneFor(s, ro)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(s, plane); err != nil {
		t.Fatal(err)
	}
	st, ps := ro.Stats(), plane.Stats()
	if st.Misses != 0 {
		t.Errorf("warm job missed the store %d times: %+v", st.Misses, st)
	}
	if st.Hits != ps.Class.Misses {
		t.Errorf("store hits %d != plane class misses %d: something loaded outside the plane", st.Hits, ps.Class.Misses)
	}
}

// TestFleetTwoProcessesShareColdStart races two "processes" (two store
// handles, two planes) through the same cold spec over one shared store
// directory, under -race in the tier-1 suite. The claim protocol
// guarantees each memo class's discovery is claimed at least once and at
// most once per process — never left unclaimed, never computed by a
// process that successfully awaited — and results are byte-identical
// either way.
func TestFleetTwoProcessesShareColdStart(t *testing.T) {
	s := mixedSpec()
	ref, err := Run(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	refAgg := mustAggJSON(t, ref)

	dir := t.TempDir()
	stores := []*memostore.Store{fleetStore(t, dir), fleetStore(t, dir)}
	reps := make([]*Report, len(stores))
	var wg sync.WaitGroup
	for i := range stores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := Run(s, platform.NewMemoPlane(stores[i], 0))
			if err != nil {
				t.Errorf("process %d: %v", i, err)
				return
			}
			reps[i] = rep
		}()
	}
	wg.Wait()
	for i, rep := range reps {
		if rep == nil {
			continue
		}
		if mustAggJSON(t, rep) != refAgg {
			t.Errorf("process %d aggregates diverged from the plane-less run", i)
		}
	}

	classes := uint64(ref.Memo.MemoClasses)
	var owned, takeovers uint64
	for _, st := range stores {
		stats := st.Stats()
		owned += stats.ClaimsOwned
		takeovers += stats.ClaimTakeovers
	}
	// Every cold class is claimed by its first toucher; a class can be
	// claimed by both processes only in the benign release/re-claim
	// window, never more than once per process (the loser of a live race
	// awaits and adopts instead).
	if owned < classes || owned > 2*classes {
		t.Errorf("claims owned fleet-wide = %d, want within [%d, %d]", owned, classes, 2*classes)
	}
	if takeovers != 0 {
		t.Errorf("%d stale takeovers during a live run", takeovers)
	}
}

// TestParseSpecJSON covers the spec file round trip and its error paths.
func TestParseSpecJSON(t *testing.T) {
	s, err := ParseSpecJSON([]byte(`{
		"name": "nightly", "devices": 100, "preset": "odrips",
		"horizon": "6h", "wake_period": "30s", "shards": 4,
		"spread": {
			"seed_base": 10, "drift_ppb": [0, 40],
			"battery_mwh": [36000], "jitter_steps": ["0s", "250ms"],
			"faults": [{"device": 3, "plan": "wake@1.3"}]
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Devices != 100 || s.Horizon != 6*sim.Hour || s.Shards != 4 {
		t.Errorf("parsed spec %+v", s)
	}
	if len(s.Spread.JitterSteps) != 2 || s.Spread.JitterSteps[1] != 250*sim.Millisecond {
		t.Errorf("jitter steps %v", s.Spread.JitterSteps)
	}
	if len(s.Spread.Faults) != 1 || s.Spread.Faults[0].Plan != "wake@1.3" {
		t.Errorf("faults %+v", s.Spread.Faults)
	}

	for name, bad := range map[string]string{
		"unknown field": `{"devices": 1, "typo_knob": 3}`,
		"retired knob":  `{"devices": 1, "plane_classes": 4}`,
		"bad duration":  `{"devices": 1, "horizon": "6 fortnights"}`,
		"bad plan":      `{"devices": 1, "spread": {"faults": [{"device": 0, "plan": "nonsense"}]}}`,
		"no devices":    `{}`,
		"two plans":     `{"devices":4,"horizon":"1m","spread":{"faults":[{"device":1,"plan":"wake@1"},{"device":1,"plan":"wake@2"}]}}`,
		"zero battery":  `{"devices":4,"horizon":"1m","spread":{"battery_mwh":[0]}}`,
	} {
		_, err := ParseSpecJSON([]byte(bad))
		if se := (*SpecError)(nil); !errors.As(err, &se) {
			t.Errorf("%s: %v for %s, want a *SpecError", name, err, bad)
		}
	}
}

// TestFleetSpecValidation exercises Spec.Validate edges and the shard
// split invariants.
func TestFleetSpecValidation(t *testing.T) {
	for name, s := range map[string]Spec{
		"too many shards":  {Devices: 2, Shards: 3},
		"bad preset":       {Devices: 1, Preset: "warp-drive"},
		"jitter >= wake":   {Devices: 1, Spread: Spread{JitterSteps: []sim.Duration{40 * sim.Second}}},
		"fault oob":        {Devices: 2, Spread: Spread{Faults: []DeviceFaults{{Device: 2, Plan: "wake@1.3"}}}},
		"two plans":        {Devices: 4, Spread: Spread{Faults: []DeviceFaults{{Device: 1, Plan: "wake@1"}, {Device: 1, Plan: "wake@2"}}}},
		"zero battery":     {Devices: 4, Spread: Spread{BatteryMWh: []float64{36000, 0}}},
		"negative battery": {Devices: 4, Spread: Spread{BatteryMWh: []float64{-1}}},
		"NaN battery":      {Devices: 4, Spread: Spread{BatteryMWh: []float64{math.NaN()}}},
		"infinite battery": {Devices: 4, Spread: Spread{BatteryMWh: []float64{math.Inf(1)}}},
	} {
		if err := s.withDefaults().Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}

	s := Spec{Devices: 10, Shards: 4}.withDefaults()
	counts := make([]int, s.Shards)
	prev := 0
	for i, d := range expand(s).devices {
		if d.shard < prev || d.shard >= s.Shards {
			t.Fatalf("device %d: shard %d not a contiguous split", i, d.shard)
		}
		prev = d.shard
		counts[d.shard]++
	}
	for i, c := range counts {
		if c < 2 || c > 3 { // 10 devices over 4 shards: 3/2/3/2
			t.Errorf("shard %d has %d devices; want balanced", i, c)
		}
	}
}

// TestFleetAcceptanceScale pins the headline perf claim structurally
// (so it cannot rot with machine speed): the 10k-device six-hour
// acceptance fleet must simulate at most 1/50th of its device-cycles —
// the engine replaces ≥50× of the sequential work — at a ≥90%
// cross-device hit rate.
func TestFleetAcceptanceScale(t *testing.T) {
	s := Spec{
		Name:    "acceptance",
		Devices: 10000,
		Shards:  16,
		Spread: Spread{
			SeedStride: 3,
			BatteryMWh: []float64{36000, 30000, 28000},
		},
	}
	rep, err := Run(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Memo.CrossDeviceHitRatePct < 90 {
		t.Errorf("cross-device hit rate %.3f%% < 90%%", rep.Memo.CrossDeviceHitRatePct)
	}
	if got, budget := rep.Memo.SimulatedCycles, rep.Aggregates.TotalDeviceCycles/50; got > budget {
		t.Errorf("simulated %d of %d device-cycles; 50x bound allows %d",
			got, rep.Aggregates.TotalDeviceCycles, budget)
	}
	if rep.Aggregates.TotalDeviceCycles != 719*10000 {
		t.Errorf("total device-cycles %d; want 7,190,000 (719 per device)", rep.Aggregates.TotalDeviceCycles)
	}
}

// TestFleetProgress pins the serving-side progress contract: counters
// are monotone while the run executes, and at completion every total is
// accounted for, per shard and overall.
func TestFleetProgress(t *testing.T) {
	s := mixedSpec()
	prog := NewProgress()
	if st := prog.Stats(); st.Started {
		t.Fatal("progress started before the run")
	}

	// A polling reader races the run, checking monotonicity of every
	// counter across snapshots (the stream the server sends clients).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var violations atomic.Int32
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last ProgressStats
		for {
			st := prog.Stats()
			if st.DevicesDone < last.DevicesDone || st.CyclesDone < last.CyclesDone ||
				st.RunsDone < last.RunsDone || st.WarmRunsDone < last.WarmRunsDone {
				violations.Add(1)
			}
			for i := range st.Shards {
				if i < len(last.Shards) && st.Shards[i].CyclesDone < last.Shards[i].CyclesDone {
					violations.Add(1)
				}
			}
			last = st
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	rep, err := RunWithProgress(context.Background(), s, nil, prog)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if violations.Load() > 0 {
		t.Errorf("%d non-monotone progress snapshots", violations.Load())
	}

	st := prog.Stats()
	if !st.Started {
		t.Fatal("progress never started")
	}
	if st.DevicesDone != st.Devices || st.Devices != s.Devices {
		t.Errorf("devices %d/%d (spec %d)", st.DevicesDone, st.Devices, s.Devices)
	}
	if st.CyclesDone != st.CyclesTotal || st.CyclesTotal != rep.Aggregates.TotalDeviceCycles {
		t.Errorf("cycles %d/%d (report %d)", st.CyclesDone, st.CyclesTotal, rep.Aggregates.TotalDeviceCycles)
	}
	if st.RunsDone != st.Runs || st.Runs != rep.Memo.RunClasses {
		t.Errorf("runs %d/%d (report %d classes)", st.RunsDone, st.Runs, rep.Memo.RunClasses)
	}
	if st.WarmRunsDone != st.WarmRuns || st.WarmRuns != rep.Memo.MemoClasses {
		t.Errorf("warm runs %d/%d (report %d classes)", st.WarmRunsDone, st.WarmRuns, rep.Memo.MemoClasses)
	}
	if len(st.Shards) != s.Shards {
		t.Fatalf("%d shard rows (spec %d)", len(st.Shards), s.Shards)
	}
	var shardCycles, shardDevices uint64
	for i, sh := range st.Shards {
		if sh.CyclesDone != sh.Cycles || sh.DevicesDone != sh.Devices {
			t.Errorf("shard %d incomplete: %d/%d cycles, %d/%d devices",
				i, sh.CyclesDone, sh.Cycles, sh.DevicesDone, sh.Devices)
		}
		shardCycles += sh.Cycles
		shardDevices += uint64(sh.Devices)
	}
	if shardCycles != st.CyclesTotal || shardDevices != uint64(st.Devices) {
		t.Errorf("shard totals %d cycles / %d devices; fleet %d / %d",
			shardCycles, shardDevices, st.CyclesTotal, st.Devices)
	}
}

// TestFleetCancellation: a canceled context stops the run at the next
// device-run boundary with an error that unwraps to context.Canceled,
// and a pre-canceled context never simulates at all.
func TestFleetCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunWithProgress(ctx, mixedSpec(), nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run: %v", err)
	}

	// Cancel mid-run: trip the cancel from the progress callback of the
	// first completed warm run, so the cancellation lands while later
	// representatives are still pending.
	s := mixedSpec()
	s.Workers = 1
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	prog := NewProgress()
	var once sync.Once
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if prog.Stats().WarmRunsDone > 0 {
				once.Do(cancel)
				return
			}
		}
	}()
	_, err := RunWithProgress(ctx, s, nil, prog)
	close(done)
	wg.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: %v", err)
	}
	if st := prog.Stats(); st.DevicesDone == st.Devices && st.CyclesDone == st.CyclesTotal {
		t.Error("run completed despite cancellation")
	}
}
