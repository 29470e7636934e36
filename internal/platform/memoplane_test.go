package platform

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"odrips/internal/memostore"
	"odrips/internal/sim"
	"odrips/internal/workload"
)

// planeCycles is a short steady-state run: long enough to reach and
// repeat the steady cycle, short enough for the test tier.
func planeCycles() []workload.Cycle {
	return workload.Fixed(40, 2*sim.Millisecond, 30*sim.Second)
}

func planeRun(t *testing.T, cfg Config, attach func(*Platform)) (Result, FFStats) {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if attach != nil {
		attach(p)
	}
	res, err := p.RunCycles(planeCycles())
	if err != nil {
		t.Fatal(err)
	}
	return res, p.FFStats()
}

// stripConfig zeroes the Config echo so results from different seeds can
// be compared field-for-field.
func stripConfig(r Result) Result {
	r.Config = Config{}
	return r
}

// TestMemoPlaneCrossDeviceSharing is the plane's core claim: the first
// device pays for the steady-state cycle, a second device of the same
// memo class — even with a different seed — replays it, and both report
// results byte-identical to an unattached run.
func TestMemoPlaneCrossDeviceSharing(t *testing.T) {
	cfgA := ODRIPSConfig()
	cfgB := cfgA
	cfgB.Seed = 99
	cfgB.TDPWatts = 15 // New's calibration point, restated
	if MemoClassKey(cfgA) != MemoClassKey(cfgB) {
		t.Fatal("seed or restated TDP split the memo class")
	}

	soloA, _ := planeRun(t, cfgA, nil)
	soloB, _ := planeRun(t, cfgB, nil)

	plane := NewMemoPlane(nil, 0)
	gotA, statsA := planeRun(t, cfgA, plane.Attach)
	gotB, statsB := planeRun(t, cfgB, plane.Attach)

	if !reflect.DeepEqual(gotA, soloA) {
		t.Errorf("device A: plane-attached result diverged from solo run")
	}
	if !reflect.DeepEqual(gotB, soloB) {
		t.Errorf("device B: plane-attached result diverged from solo run")
	}
	if statsA.CyclesRecorded == 0 {
		t.Errorf("device A recorded no cycles: %+v", statsA)
	}
	if statsB.CyclesReplayed == 0 {
		t.Errorf("device B replayed nothing from the shared plane: %+v", statsB)
	}
	if statsB.CyclesRecorded >= statsA.CyclesRecorded {
		t.Errorf("device B re-recorded the plane's classes (A %d, B %d)",
			statsA.CyclesRecorded, statsB.CyclesRecorded)
	}

	st := plane.Stats()
	if st.Classes != 1 {
		t.Errorf("plane classes = %d want 1", st.Classes)
	}
	if st.Records == 0 || st.Adopted == 0 {
		t.Errorf("plane stats %+v: want records and adoptions", st)
	}
}

// TestMemoPlaneRerunIsPure: a second attached run of a config whose
// class the plane already holds replays every cycle, publishes nothing,
// and matches the first run exactly; two such reruns agree on their
// replay statistics too, so a rerun is a pure function of (cfg, cycles,
// plane content).
func TestMemoPlaneRerunIsPure(t *testing.T) {
	cfg := ODRIPSConfig()
	plane := NewMemoPlane(nil, 0)
	want, _ := planeRun(t, cfg, plane.Attach)
	recordsBefore := plane.Stats().Records
	if recordsBefore == 0 {
		t.Fatal("the first run published no records")
	}

	got, stats := planeRun(t, cfg, plane.Attach)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rerun result diverged from the first run")
	}
	if n := uint64(len(planeCycles())); stats.CyclesReplayed != n || stats.CyclesRecorded != 0 {
		t.Errorf("rerun recorded %d and replayed %d of %d cycles", stats.CyclesRecorded, stats.CyclesReplayed, n)
	}
	if after := plane.Stats().Records; after != recordsBefore {
		t.Errorf("rerun published to the plane: %d -> %d records", recordsBefore, after)
	}

	_, stats2 := planeRun(t, cfg, plane.Attach)
	if stats2 != stats {
		t.Errorf("reruns disagree on stats: %+v vs %+v", stats, stats2)
	}
}

// TestMemoPlanePersistence: Flush writes plane classes through the store,
// and a fresh plane over the same store adopts them without simulating.
func TestMemoPlanePersistence(t *testing.T) {
	dir := t.TempDir()
	store, err := memostore.Open(dir, memostore.RW)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ODRIPSConfig()

	plane1 := NewMemoPlane(store, 0)
	want, _ := planeRun(t, cfg, plane1.Attach)
	plane1.Flush()
	if st := store.Stats(); st.Writes == 0 {
		t.Fatalf("Flush wrote nothing: %+v", st)
	}

	plane2 := NewMemoPlane(store, 0)
	got, stats := planeRun(t, cfg, plane2.Attach)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("disk-warmed plane result diverged")
	}
	if stats.CyclesReplayed == 0 || plane2.Stats().Adopted == 0 {
		t.Errorf("fresh plane adopted nothing from disk: ff=%+v plane=%+v", stats, plane2.Stats())
	}
}

// TestWarmClassCrossProcess is the claim protocol end to end: two
// planes over two stores sharing one directory (two "processes"). The
// first WarmClass wins the claim and computes, and the plane writes the
// class before releasing the claim; the second finds the class on disk
// and replays instead of rediscovering.
func TestWarmClassCrossProcess(t *testing.T) {
	dir := t.TempDir()
	openStore := func() *memostore.Store {
		s, err := memostore.Open(dir, memostore.RW)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	storeA, storeB := openStore(), openStore()
	planeA, planeB := NewMemoPlane(storeA, 0), NewMemoPlane(storeB, 0)
	cfg := ODRIPSConfig()
	key := MemoClassKey(cfg)
	solo, _ := planeRun(t, cfg, nil)

	var resA, resB Result
	var ffA, ffB FFStats
	if err := planeA.WarmClass(context.Background(), key, func() error {
		resA, ffA = planeRun(t, cfg, planeA.Attach)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sa := storeA.Stats(); sa.ClaimsOwned != 1 || sa.Writes == 0 {
		t.Fatalf("leader process stats %+v: want an owned claim and the class's write", sa)
	}
	if ffA.CyclesRecorded == 0 {
		t.Fatalf("leader discovered nothing: %+v", ffA)
	}

	if err := planeB.WarmClass(context.Background(), key, func() error {
		resB, ffB = planeRun(t, cfg, planeB.Attach)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resA, solo) || !reflect.DeepEqual(resB, solo) {
		t.Fatal("coordinated runs diverged from solo run")
	}
	if ffB.CyclesReplayed == 0 || ffB.CyclesRecorded != 0 {
		t.Fatalf("second process re-discovered the class: %+v", ffB)
	}
	if sb := storeB.Stats(); sb.ClaimsOwned != 0 {
		t.Fatalf("second process claimed a warm class: %+v", sb)
	}
	if st := planeA.Stats(); st.WarmLeads != 1 || st.WarmShared != 0 {
		t.Fatalf("plane A warm stats %+v", st)
	}
}

// TestWarmClassConcurrentProcesses races two planes' WarmClass over one
// shared store directory under -race. Whoever loses the claim adopts the
// winner's saved bundle (or claims after the winner released); either
// interleaving must yield identical results and exactly one discovery
// per unique fingerprint fleet-wide is asserted by the claims/waits
// accounting summing consistently.
func TestWarmClassConcurrentProcesses(t *testing.T) {
	dir := t.TempDir()
	cfg := ODRIPSConfig()
	key := MemoClassKey(cfg)
	solo, _ := planeRun(t, cfg, nil)

	stores := make([]*memostore.Store, 2)
	planes := make([]*MemoPlane, 2)
	for i := range stores {
		s, err := memostore.Open(dir, memostore.RW)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
		planes[i] = NewMemoPlane(s, 0)
	}

	results := make([]Result, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := planes[i].WarmClass(context.Background(), key, func() error {
				results[i], _ = planeRun(t, cfg, planes[i].Attach)
				return nil
			}); err != nil {
				t.Errorf("plane %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	for i, r := range results {
		if !reflect.DeepEqual(r, solo) {
			t.Errorf("plane %d result diverged from solo run", i)
		}
	}
	var owned, lost, waits, takeovers uint64
	for _, s := range stores {
		st := s.Stats()
		owned += st.ClaimsOwned
		lost += st.ClaimsLost
		waits += st.ClaimWaitHits
		takeovers += st.ClaimTakeovers
	}
	if owned < 1 || owned > 2 {
		t.Errorf("claims owned fleet-wide = %d, want 1 or 2", owned)
	}
	if takeovers != 0 {
		t.Errorf("%d takeovers during a live race (stale threshold is 30s)", takeovers)
	}
	// A process that lost the claim must have awaited rather than raced:
	// every loss pairs with a wait outcome (hit, vanish, or retry claim).
	if lost > 0 && waits == 0 && owned != 2 {
		t.Errorf("claim lost without a wait resolution: owned=%d lost=%d waits=%d", owned, lost, waits)
	}
}

// TestWarmClassSamePlane races two goroutines' WarmClass for one cold
// class on one plane over one rw store. The claim file is the only
// coordination: whichever caller claims first discovers the class and
// the plane writes it, and the other waits for that write and adopts the
// bundle. The owner's compute holds until the rival has lost the claim,
// so the race always takes that shape.
func TestWarmClassSamePlane(t *testing.T) {
	store, err := memostore.Open(t.TempDir(), memostore.RW)
	if err != nil {
		t.Fatal(err)
	}
	plane := NewMemoPlane(store, 0)
	cfg := ODRIPSConfig()
	key := MemoClassKey(cfg)
	solo, _ := planeRun(t, cfg, nil)

	results := make([]Result, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := plane.WarmClass(context.Background(), key, func() error {
				waitFor(func() bool { return store.Stats().ClaimsLost > 0 })
				p, err := New(cfg)
				if err != nil {
					return err
				}
				plane.Attach(p)
				results[i], err = p.RunCycles(planeCycles())
				return err
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	for i, r := range results {
		if !reflect.DeepEqual(r, solo) {
			t.Errorf("caller %d result diverged from the unattached run", i)
		}
	}
	if st := store.Stats(); st.ClaimsOwned != 1 || st.ClaimsLost != 1 || st.ClaimWaitHits != 1 {
		t.Errorf("store stats %+v: want 1 claim owned, 1 lost, 1 wait hit", st)
	}
	if st := plane.Stats(); st.WarmLeads != 1 || st.WarmShared != 1 {
		t.Errorf("plane stats %+v: want 1 warm lead, 1 warm shared", st)
	}
}

// TestWarmClassCanceledWaiterReturns: a caller waiting on another
// caller's claim returns its ctx error as soon as ctx ends, while the
// owner is still computing, and never runs its own compute.
func TestWarmClassCanceledWaiterReturns(t *testing.T) {
	store, err := memostore.Open(t.TempDir(), memostore.RW)
	if err != nil {
		t.Fatal(err)
	}
	plane := NewMemoPlane(store, 0)
	key := MemoClassKey(ODRIPSConfig())

	var wg sync.WaitGroup
	started, release := make(chan struct{}), make(chan struct{})
	leaderDone, waiterDone := make(chan struct{}), make(chan struct{})
	var leaderErr, waiterErr error
	waiterRan := false
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(leaderDone)
		leaderErr = plane.WarmClass(context.Background(), key, func() error {
			close(started)
			<-release
			return nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		defer wg.Done()
		defer close(waiterDone)
		waiterErr = plane.WarmClass(ctx, key, func() error {
			waiterRan = true
			return nil
		})
	}()
	waitFor(func() bool { return store.Stats().ClaimsLost > 0 })
	cancel()
	returned := waitFor(func() bool { return closed(waiterDone) })
	leaderBlocked := !closed(leaderDone)
	close(release)
	wg.Wait()

	if !returned {
		t.Error("canceled waiter stayed parked behind the owner's compute")
	}
	if !leaderBlocked {
		t.Error("owner finished before its compute was released")
	}
	if leaderErr != nil {
		t.Errorf("owner: %v", leaderErr)
	}
	if !errors.Is(waiterErr, context.Canceled) {
		t.Errorf("waiter returned %v, want context.Canceled", waiterErr)
	}
	if waiterRan {
		t.Error("canceled waiter ran its compute")
	}
}

// closed reports whether ch is closed, without blocking.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// waitFor polls cond until it holds or 10 s pass, and reports whether it
// held. It paces tests that wait on another goroutine; no simulated
// result reads the clock.
func waitFor(cond func() bool) bool {
	//odrips:allow walltime test pacing only: bounds a wait on another goroutine, no simulated result reads it
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		//odrips:allow walltime test pacing only: bounds a wait on another goroutine, no simulated result reads it
		if time.Now().After(deadline) {
			return false
		}
		//odrips:allow walltime test pacing only: poll interval of a wait on another goroutine
		time.Sleep(time.Millisecond)
	}
	return true
}

// TestMemoPlaneEvictionFlushes: runs write nothing, and a plane bounded
// to 2 classes that runs a third writes the dirty class it evicts before
// the third loads, so the bound costs a disk reload, not rework. Flush
// then writes each remaining dirty class once, and a second Flush
// nothing.
func TestMemoPlaneEvictionFlushes(t *testing.T) {
	dir := t.TempDir()
	store, err := memostore.Open(dir, memostore.RW)
	if err != nil {
		t.Fatal(err)
	}
	first := ODRIPSConfig()
	plane := NewMemoPlane(store, 2)
	planeRun(t, first, plane.Attach)
	planeRun(t, DefaultConfig(), plane.Attach)
	if st := store.Stats(); st.Writes != 0 {
		t.Fatalf("runs wrote the store themselves: %+v", st)
	}
	planeRun(t, DefaultConfig().WithTechniques(WakeUpOff), plane.Attach) // evicts first
	if st := plane.Stats(); st.Classes != 2 || st.Class.Evictions != 1 {
		t.Fatalf("plane stats %+v: want 2 classes, 1 eviction", st)
	}
	if st := store.Stats(); st.Writes != 1 {
		t.Fatalf("evicting one dirty class made %d writes, want 1: %+v", st.Writes, st)
	}
	ro, err := memostore.Open(dir, memostore.RO)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := ro.Load("cycles", []byte(MemoClassKey(first))); !ok || err != nil {
		t.Fatalf("the evicted class is not on disk: ok=%v err=%v", ok, err)
	}
	for _, want := range []uint64{3, 3} {
		plane.Flush()
		if st := store.Stats(); st.Writes != want {
			t.Fatalf("after Flush: %d writes, want %d", st.Writes, want)
		}
	}

	// Re-acquiring the evicted class reloads it from disk.
	plane2 := NewMemoPlane(store, 2)
	_, stats := planeRun(t, first, plane2.Attach)
	if stats.CyclesReplayed == 0 {
		t.Errorf("evicted-and-reloaded class replayed nothing: %+v", stats)
	}
}

// TestMemoPlaneConcurrentEviction: two goroutines alternate between two
// memo classes on a plane bounded to 1 class over a rw store, so acquire
// evicts and writes a class while the other goroutine's run may still be
// publishing into it. Every result matches an unattached run, and the
// class left live is written at Flush. Run under -race.
func TestMemoPlaneConcurrentEviction(t *testing.T) {
	store, err := memostore.Open(t.TempDir(), memostore.RW)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := [2]Config{ODRIPSConfig(), DefaultConfig()}
	var solo [2]Result
	for i, cfg := range cfgs {
		solo[i], _ = planeRun(t, cfg, nil)
	}
	plane := NewMemoPlane(store, 1)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				c := (g + k) % 2
				p, err := New(cfgs[c])
				if err != nil {
					t.Error(err)
					return
				}
				plane.Attach(p)
				res, err := p.RunCycles(planeCycles())
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(res, solo[c]) {
					t.Errorf("goroutine %d run %d: result diverged from the unattached run", g, k)
				}
			}
		}()
	}
	wg.Wait()
	plane.Flush()
	if st := plane.Stats(); st.Class.Evictions == 0 {
		t.Errorf("plane stats %+v: the runs evicted nothing", st)
	}
	if st := store.Stats(); st.Writes == 0 {
		t.Errorf("Flush wrote nothing: %+v", st)
	}
}

// TestMemoPlaneAttachReadsLive: a platform reads its class bundle live,
// not a copy taken when it attached. A and B attach to a fresh plane
// before either runs; B, running after A, replays everything A recorded.
func TestMemoPlaneAttachReadsLive(t *testing.T) {
	cfg := ODRIPSConfig()
	plane := NewMemoPlane(nil, 0)
	var ps [2]*Platform
	for i := range ps {
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plane.Attach(p)
		ps[i] = p
	}
	want, err := ps[0].RunCycles(planeCycles())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ps[1].RunCycles(planeCycles())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("B's result diverged from A's")
	}
	if st, n := ps[1].FFStats(), uint64(len(planeCycles())); st.CyclesRecorded != 0 || st.CyclesReplayed != n {
		t.Errorf("B recorded %d and replayed %d of %d cycles; want 0 and all", st.CyclesRecorded, st.CyclesReplayed, n)
	}
}

// TestMemoPlaneConcurrentSameClass: platforms of one class running at
// once on one plane publish into and replay from the same bundle while
// it grows; whatever each sees, its result equals a full simulation.
// Under -race this is the bundle lock's check.
func TestMemoPlaneConcurrentSameClass(t *testing.T) {
	const devices = 3
	cycles := workload.ConnectedStandby(24, 3)
	cfgOf := func(i int) Config {
		cfg := ODRIPSConfig()
		cfg.Seed = int64(i + 1)
		return cfg
	}
	var want [devices]Result
	for i := range want {
		p, err := New(cfgOf(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.SetFastForward(FFOff); err != nil {
			t.Fatal(err)
		}
		if want[i], err = p.RunCycles(cycles); err != nil {
			t.Fatal(err)
		}
	}

	plane := NewMemoPlane(nil, 0)
	var ps [devices]*Platform
	for i := range ps {
		p, err := New(cfgOf(i))
		if err != nil {
			t.Fatal(err)
		}
		plane.Attach(p)
		ps[i] = p
	}
	var got [devices]Result
	var errs [devices]error
	var wg sync.WaitGroup
	for i, p := range ps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = p.RunCycles(cycles)
		}()
	}
	wg.Wait()
	for i, p := range ps {
		if errs[i] != nil {
			t.Fatalf("device %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("device %d: result diverged from its fast-forward-off run", i)
		}
		t.Logf("device %d: %+v", i, p.FFStats())
	}
	if st := plane.Stats(); st.Classes != 1 || st.Records == 0 {
		t.Errorf("plane stats %+v: want one class holding records", st)
	}
}

// TestMemoPlaneConcurrentOpsRunOnce: fresh platforms of one class
// starting at once — parallel sweep points — run each MEE op record's
// op once between them: the others wait for its record instead of
// repeating the crypto. Whatever the schedule, 3 of the 4 × 8 ops run
// for real (idles differ, so no cycle replays), and every result equals
// a full simulation.
func TestMemoPlaneConcurrentOpsRunOnce(t *testing.T) {
	const devices = 4
	cfg := ODRIPSConfig()
	cfg.ForceDeepest = true
	cyclesOf := func(i int) []workload.Cycle {
		return workload.Fixed(4, 2*sim.Millisecond, 8*sim.Millisecond+sim.Duration(i)*200*sim.Microsecond)
	}
	plane := NewMemoPlane(nil, 0)
	var got [devices]Result
	var stats [devices]FFStats
	var errs [devices]error
	var wg sync.WaitGroup
	for i := 0; i < devices; i++ {
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plane.Attach(p)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = p.RunCycles(cyclesOf(i))
			stats[i] = p.FFStats()
		}()
	}
	wg.Wait()
	var replayed uint64
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("device %d: %v", i, errs[i])
		}
		want, _ := runStandby(t, cfg, nil, FFOff, cyclesOf(i))
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("device %d: result diverged from its fast-forward-off run", i)
		}
		replayed += stats[i].MEEOpsReplayed
	}
	if replayed != devices*8-3 {
		t.Errorf("%d of %d MEE ops replayed, want all but the class's 3 first ones", replayed, devices*8)
	}
}

// TestBarePlatformRecordCap: a platform built by New alone records into
// its private bundle under the one record cap, so a jittered
// connected-standby run records every cycle.
func TestBarePlatformRecordCap(t *testing.T) {
	p, err := New(ODRIPSConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunCycles(workload.ConnectedStandby(720, 1)); err != nil {
		t.Fatal(err)
	}
	if st := p.FFStats(); st.CyclesRecorded != 720 {
		t.Errorf("bare platform recorded %d of 720 jittered cycles", st.CyclesRecorded)
	}
}

// TestMemoPlaneSharesOpRecords: MEE op records live in the memo class,
// so a second fresh platform of the class replays every context save and
// restore — its first save from the formatted engine included — where a
// platform-private record set made it pay for three. The shape is the
// break-even sweep's: forced-deepest ODRIPS, four 2 ms cycles, adjacent
// idle lengths (different idles keep whole-cycle replay out of the way).
func TestMemoPlaneSharesOpRecords(t *testing.T) {
	cfg := ODRIPSConfig()
	cfg.ForceDeepest = true
	run := func(idle sim.Duration, mode FFMode, plane *MemoPlane) (Result, FFStats) {
		t.Helper()
		return runStandby(t, cfg, plane, mode, workload.Fixed(4, 2*sim.Millisecond, idle))
	}
	plane := NewMemoPlane(nil, 0)
	run(8*sim.Millisecond, FFOn, plane)
	idle := 8200 * sim.Microsecond
	got, st := run(idle, FFOn, plane)
	want, _ := run(idle, FFOff, nil)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("second platform's result diverged from an FFOff run")
	}
	if st.MEEOpsReplayed != 8 || st.Materializations != 0 || st.CyclesReplayed != 0 {
		t.Errorf("second platform: %+v, want all 8 MEE ops replayed, no materialization, no cycle replayed", st)
	}
	// One record per start state: formatted save, imported restore,
	// primed save.
	if n := plane.Stats().OpRecords; n != 3 {
		t.Errorf("plane holds %d op records, want 3", n)
	}
}
