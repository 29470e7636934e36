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
	"strings"
	"sync"
	"sync/atomic"
	"testing"

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
// Each naive run also gets a seed of its own, so the engine's one
// shared seed is pinned output-inert too.
func TestFleetMatchesNaiveSimulation(t *testing.T) {
	s := mixedSpec().withDefaults()

	rep, err := Run(s, nil)
	if err != nil {
		t.Fatal(err)
	}

	classes := formattedClasses(s)
	runs := make([]runOutcome, len(classes.runs))
	for r := range classes.runs {
		classes.runs[r].cfg.Seed = 1 + int64(classes.runs[r].rep)
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

// TestFleetClassTableMatchesFormattedKeys: the value-keyed class table
// partitions devices exactly as the formatted string keys do, with the
// same lowest-index representatives, configs, shapes, plans and memo
// keys, and gives every device the kind the per-device oracle does.
func TestFleetClassTableMatchesFormattedKeys(t *testing.T) {
	spread := Spec{
		Devices: 60,
		Shards:  5,
		Spread: Spread{
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
		if !reflect.DeepEqual(got.runs, want.runs) || !reflect.DeepEqual(got.memos, want.memos) || !reflect.DeepEqual(got.kinds, want.kinds) {
			t.Errorf("%s: value-keyed table differs from the formatted-key oracle:\n got %+v\nwant %+v", name, got, want)
		}
		for i := range s.Devices {
			if g, w := got.kindOf(i), want.kindOf(i); g != w {
				t.Errorf("%s: device %d is kind %d, want %d", name, i, g, w)
			}
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

	for _, workers := range []int{1, 3, 7} {
		rep, err := Exec(context.Background(), experiments.NewRuntime(nil, platform.FFOn, workers), base, nil)
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
// homogeneous-spread fleet (battery capacities vary, physics does
// not) collapses to one simulated run class, and the cross-device
// memo hit rate clears 90% with a wide margin.
func TestFleetHomogeneousHitRate(t *testing.T) {
	s := Spec{
		Name:    "homogeneous",
		Devices: 1000,
		Horizon: 10 * sim.Minute,
		Spread: Spread{
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

// TestFleetJobBuildsOneTemplate: every run class is built from the
// preset's seed, so a job builds one platform template however many run
// classes it has, and a second job on the runtime builds none.
func TestFleetJobBuildsOneTemplate(t *testing.T) {
	rt := experiments.NewRuntime(nil, platform.FFOn, 0)
	for job := 1; job <= 2; job++ {
		if _, err := Exec(context.Background(), rt, mixedSpec(), nil); err != nil {
			t.Fatal(err)
		}
		if st := rt.TemplateStats(); st.Puts != 1 || st.Evictions != 0 {
			t.Errorf("after job %d: %d templates built, %d evicted; want 1, 0", job, st.Puts, st.Evictions)
		}
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

// TestFleetCanceledJobKeepsFinishedRuns: Exec flushes on every return,
// so a job canceled mid-run leaves on disk every record its finished
// runs discovered: a fresh plane over the store adopts exactly as many
// records as the canceled job's plane holds.
func TestFleetCanceledJobKeepsFinishedRuns(t *testing.T) {
	s := mixedSpec()
	dir := t.TempDir()
	rt := experiments.NewRuntime(platform.NewMemoPlane(fleetStore(t, dir), 0), platform.FFOn, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	prog := NewProgress()
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
			if prog.Stats().RunsDone >= 2 {
				cancel()
				return
			}
		}
	}()
	_, err := Exec(ctx, rt, s, prog)
	close(done)
	wg.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: %v", err)
	}
	if st := prog.Stats(); st.RunsDone == st.Runs {
		t.Fatal("job finished before the cancel landed")
	}
	held := rt.Plane().Stats().Records
	if held == 0 {
		t.Fatal("the canceled job discovered nothing")
	}

	ro, err := memostore.Open(dir, memostore.RO)
	if err != nil {
		t.Fatal(err)
	}
	fresh := experiments.NewRuntime(platform.NewMemoPlane(ro, 0), platform.FFOn, 0)
	n, err := s.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	tab := expand(n)
	for _, m := range tab.memos {
		if _, err := fresh.NewPlatform(tab.runs[m.run].cfg); err != nil {
			t.Fatal(err)
		}
	}
	if got := fresh.Plane().Stats().Adopted; got != uint64(held) {
		t.Errorf("the store holds %d of the %d records the canceled job discovered", got, held)
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
// .memo bytes — one cycles entry per memo class and one run entry per
// run class — and reports the same full report at any worker count, and
// a rerun over the filled store with a fresh plane simulates nothing.
// The spec is mixedSpec without its fault plan: the memo stays off until
// an injection fires, so a faulted device simulates its first cycles on
// every run.
func TestFleetStoreFillIsScheduleIndependent(t *testing.T) {
	spec := mixedSpec()
	spec.Spread.Faults = nil
	var refFiles map[string]string
	var refFull, refAgg, refDir string
	for _, workers := range []int{1, 3, 7} {
		dir := t.TempDir()
		rt := experiments.NewRuntime(platform.NewMemoPlane(fleetStore(t, dir), 0), platform.FFOn, workers)
		rep, err := Exec(context.Background(), rt, spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		files, full := memoFiles(t, dir), mustReportJSON(t, rep)
		perClass := map[string]int{}
		for name := range files {
			perClass[name[:strings.IndexByte(name, '-')]]++
		}
		if want := map[string]int{"cycles": rep.Memo.MemoClasses, "run": rep.Memo.RunClasses}; !reflect.DeepEqual(perClass, want) {
			t.Fatalf("workers=%d: .memo files by class %v, want %v", workers, perClass, want)
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
// read-only store loads exactly one run entry per run class, every one
// a hit, and nothing else: it builds no platform and no template, so
// its plane acquires no class and nothing asks the store for cycles.
func TestFleetWarmJobLoadsOnlyThroughPlane(t *testing.T) {
	s := mixedSpec()
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
	rt := experiments.NewRuntime(plane, platform.FFOn, 0)
	rep, err := Exec(context.Background(), rt, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ts := rt.TemplateStats(); ts.Puts != 0 || ts.Hits != 0 {
		t.Errorf("warm job built platforms: %+v", ts)
	}
	st, ps := ro.Stats(), plane.Stats()
	if st.Misses != 0 {
		t.Errorf("warm job missed the store %d times: %+v", st.Misses, st)
	}
	if st.Hits != uint64(rep.Memo.RunClasses) || rep.Memo.LoadedRuns != rep.Memo.RunClasses {
		t.Errorf("warm job loaded %d store entries and %d runs for %d run classes", st.Hits, rep.Memo.LoadedRuns, rep.Memo.RunClasses)
	}
	if ps.Class.Misses != 0 || ps.Classes != 0 {
		t.Errorf("warm job acquired plane classes: %+v", ps)
	}
}

// filledStore runs s over a fresh rw store and returns its directory
// and the fill's report.
func filledStore(t *testing.T, s Spec) (string, *Report) {
	t.Helper()
	dir := t.TempDir()
	rep, err := Run(s, platform.NewMemoPlane(fleetStore(t, dir), 0))
	if err != nil {
		t.Fatal(err)
	}
	return dir, rep
}

// roRuntime builds a runtime in mode ff over a read-only store on dir.
func roRuntime(t *testing.T, dir string, ff platform.FFMode) *experiments.Runtime {
	t.Helper()
	ro, err := memostore.Open(dir, memostore.RO)
	if err != nil {
		t.Fatal(err)
	}
	return experiments.NewRuntime(platform.NewMemoPlane(ro, 0), ff, 0)
}

// TestFleetWarmJobMatchesCold: a job whose every run class the run memo
// holds reports the cold job's aggregates and progress, loads every run
// and executes none, and a -fastforward verify audit of the store
// re-executes every run and agrees.
func TestFleetWarmJobMatchesCold(t *testing.T) {
	s := mixedSpec()
	coldProg := NewProgress()
	cold, err := RunWithProgress(context.Background(), s, nil, coldProg)
	if err != nil {
		t.Fatal(err)
	}
	dir, _ := filledStore(t, s)
	warmProg := NewProgress()
	warm, err := Exec(context.Background(), roRuntime(t, dir, platform.FFOn), s, warmProg)
	if err != nil {
		t.Fatal(err)
	}
	if mustAggJSON(t, warm) != mustAggJSON(t, cold) {
		t.Error("warm aggregates diverged from the cold job's")
	}
	if got, want := warmProg.Stats(), coldProg.Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("warm job's final progress differs from the cold job's:\n got %+v\nwant %+v", got, want)
	}
	if m := warm.Memo; m.LoadedRuns != m.RunClasses || m.SimulatedRuns != 0 || m.SimulatedCycles != 0 || m.ReplayedCycles != 0 {
		t.Errorf("warm job's memo section %+v: want every run loaded and no cycle executed", m)
	}
	for _, sh := range warm.Shards {
		if sh.SimulatedCycles != 0 {
			t.Errorf("warm job's shard %d simulated %d cycles", sh.Shard, sh.SimulatedCycles)
		}
	}
	audit, err := Exec(context.Background(), roRuntime(t, dir, platform.FFVerify), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m := audit.Memo; m.SimulatedRuns != m.RunClasses || m.LoadedRuns != 0 {
		t.Errorf("verify audit's memo section %+v: want every run executed", m)
	}
	if mustAggJSON(t, audit) != mustAggJSON(t, cold) {
		t.Error("verify audit's aggregates diverged from the cold job's")
	}
}

// TestFleetVerifyDetectsRunTamper: a run entry re-saved under its key
// with one field changed passes a plain warm job and fails a
// -fastforward verify job, which names the class and the field.
func TestFleetVerifyDetectsRunTamper(t *testing.T) {
	s, err := mixedSpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	dir, _ := filledStore(t, s)
	tab := expand(s)
	key := tab.runs[1].key(s, &tab).StoreKey()
	rw := fleetStore(t, dir)
	payload, ok, err := rw.Load("run", key)
	if err != nil || !ok {
		t.Fatalf("run entry of run class 1: ok=%v err=%v", ok, err)
	}
	sum, ok := runMemo.Decode(payload)
	if !ok {
		t.Fatal("stored run entry does not decode")
	}
	sum.IdleResidency -= 1e-9
	rw.Save("run", key, runMemo.Encode(sum))

	if _, err := Exec(context.Background(), roRuntime(t, dir, platform.FFOn), s, nil); err != nil {
		t.Fatalf("plain warm job must trust the store: %v", err)
	}
	_, err = Exec(context.Background(), roRuntime(t, dir, platform.FFVerify), s, nil)
	if err == nil || !strings.Contains(err.Error(), "run point diverged") || !strings.Contains(err.Error(), "IdleResidency") {
		t.Fatalf("verify job over a tampered run entry: %v; want a run divergence naming IdleResidency", err)
	}
}

// TestFleetCanceledWarmJob: ctx is checked before every run class, hit
// or miss, so a pre-canceled job over a warm store loads nothing and
// returns ctx's error.
func TestFleetCanceledWarmJob(t *testing.T) {
	s := mixedSpec()
	dir, _ := filledStore(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rt := roRuntime(t, dir, platform.FFOn)
	if _, err := Exec(ctx, rt, s, nil); !errors.Is(err, ctx.Err()) {
		t.Fatalf("pre-canceled warm job: %v", err)
	}
	if st := rt.Store().Stats(); st.Hits != 0 {
		t.Errorf("pre-canceled warm job loaded %d entries", st.Hits)
	}
}

// TestRunMemoCodecCoversEveryField round-trips a runSummary whose every
// field reflection set to a nonzero value, so a field the codec does not
// carry fails it, and checks the decoder takes only canonical payloads.
func TestRunMemoCodecCoversEveryField(t *testing.T) {
	var sum runSummary
	v := reflect.ValueOf(&sum).Elem()
	for i := range v.NumField() {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(1000 + i))
		case reflect.Float64:
			f.SetFloat(0.25 + float64(i))
		case reflect.Map:
			f.Set(reflect.ValueOf(map[string]uint64{fmt.Sprintf("k%d", i): uint64(i + 1), "z": 7}))
		default:
			t.Fatalf("runSummary.%s: kind %v has no filler; extend this test and the codec", v.Type().Field(i).Name, f.Kind())
		}
	}
	payload := runMemo.Encode(sum)
	got, ok := runMemo.Decode(payload)
	if !ok || !reflect.DeepEqual(got, sum) {
		t.Fatalf("round trip: ok=%v\n got %+v\nwant %+v", ok, got, sum)
	}
	if again := runMemo.Encode(got); string(again) != string(payload) {
		t.Error("re-encoding a decoded summary changed its bytes")
	}
	for _, bad := range [][]byte{payload[:len(payload)-1], append(append([]byte(nil), payload...), 0)} {
		if _, ok := runMemo.Decode(bad); ok {
			t.Errorf("decoder accepted a %d-byte payload (canonical %d)", len(bad), len(payload))
		}
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
			"drift_ppb": [0, 40],
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

	bads := map[string]string{
		"unknown field": `{"devices": 1, "typo_knob": 3}`,
		"retired knob":  `{"devices": 1, "plane_classes": 4}`,
		"seed_base":     `{"devices": 1, "spread": {"seed_base": 10}}`,
		"seed_stride":   `{"devices": 1, "spread": {"seed_stride": 3}}`,
		"workers":       `{"devices": 1, "workers": 2}`,
		"bad duration":  `{"devices": 1, "horizon": "6 fortnights"}`,
		"bad plan":      `{"devices": 1, "spread": {"faults": [{"device": 0, "plan": "nonsense"}]}}`,
		"no devices":    `{}`,
		"two plans":     `{"devices":4,"horizon":"1m","spread":{"faults":[{"device":1,"plan":"wake@1"},{"device":1,"plan":"wake@2"}]}}`,
		"zero battery":  `{"devices":4,"horizon":"1m","spread":{"battery_mwh":[0]}}`,
		"second object": `{"devices":12,"horizon":"2m"} {"devices":99999999}`,
		"trailing junk": `{"devices":12,"horizon":"2m"} garbage`,
	}
	for name, bad := range bads {
		_, err := ParseSpecJSON([]byte(bad))
		if se := (*SpecError)(nil); !errors.As(err, &se) {
			t.Errorf("%s: %v for %s, want a *SpecError", name, err, bad)
		}
	}
	// Bytes after the spec object fail the decode itself.
	for _, name := range []string{"second object", "trailing junk"} {
		_, err := ParseSpecJSON([]byte(bads[name]))
		if se := (*SpecError)(nil); !errors.As(err, &se) || se.Reason != "decode" {
			t.Errorf("%s: %v, want a decode *SpecError", name, err)
		}
	}
	// The removed seed and workers fields fail the decode, naming the field.
	for _, name := range []string{"seed_base", "seed_stride", "workers"} {
		_, err := ParseSpecJSON([]byte(bads[name]))
		if se := (*SpecError)(nil); !errors.As(err, &se) || se.Reason != "decode" || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: %v, want a decode *SpecError naming the field", name, err)
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
	tab := expand(s)
	for sh := range s.Shards {
		lo, hi := tab.shardStart(sh), tab.shardStart(sh+1)
		if c := hi - lo; c < 2 || c > 3 { // 10 devices over 4 shards: 3/2/3/2
			t.Errorf("shard %d has %d devices; want balanced", sh, c)
		}
		for i := lo; i < hi; i++ {
			if i*s.Shards/s.Devices != sh {
				t.Errorf("device %d: in shard %d's range, want shard %d", i, sh, i*s.Shards/s.Devices)
			}
		}
	}
	if tab.shardStart(0) != 0 || tab.shardStart(s.Shards) != s.Devices {
		t.Errorf("shards span [%d, %d), want [0, %d)", tab.shardStart(0), tab.shardStart(s.Shards), s.Devices)
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
	_, err := Exec(ctx, experiments.NewRuntime(nil, platform.FFOn, 1), mixedSpec(), prog)
	close(done)
	wg.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: %v", err)
	}
	if st := prog.Stats(); st.DevicesDone == st.Devices && st.CyclesDone == st.CyclesTotal {
		t.Error("run completed despite cancellation")
	}
}
