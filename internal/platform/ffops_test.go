package platform

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"odrips/internal/dram"
	"odrips/internal/mee"
	"odrips/internal/memostore"
	"odrips/internal/sim"
	"odrips/internal/workload"
)

// dramVariant is one memory a preset or experiment runs ODRIPS on.
type dramVariant struct {
	name string
	cfg  Config
}

// dramVariants are DDR3L-1600 (the baseline 8 GB module), its 1067 and
// 800 MT/s variants (§8.2), and PCM (§8.3).
func dramVariants() []dramVariant {
	var out []dramVariant
	for _, mtps := range []int{1600, 1067, 800} {
		cfg := ODRIPSConfig()
		cfg.DRAMMTps = mtps
		out = append(out, dramVariant{fmt.Sprintf("DDR3L-%d", mtps), cfg})
	}
	pcm := ODRIPSConfig()
	pcm.MainMemory = dram.PCM
	return append(out, dramVariant{"PCM", pcm})
}

// ctxOpSequence runs, through ctxOp, the three ops a platform records:
// a save from the formatted state, a restore from a fresh import of the
// saved state, and a save from the primed state that restore leaves. It
// returns their latencies.
func ctxOpSequence(t *testing.T, p *Platform) [3]sim.Duration {
	t.Helper()
	var lats [3]sim.Duration
	var err error
	if lats[0], err = p.ffSaveCtxDRAM(); err != nil {
		t.Fatalf("formatted save: %v", err)
	}
	if p.eng, err = mee.ImportState(p.eng.Mem(), p.eng.ExportState(), mee.DefaultCacheLines); err != nil {
		t.Fatal(err)
	}
	lats[1], err = p.ctxOp(false, ffStartImported, func() error {
		_, err := p.eng.ReadRegionInto(p.restoreBuffer(), len(p.ctxImage))
		return err
	})
	if err != nil {
		t.Fatalf("imported restore: %v", err)
	}
	if lats[2], err = p.ffSaveCtxDRAM(); err != nil {
		t.Fatalf("primed save: %v", err)
	}
	return lats
}

// TestOpLatencyMatchesRealOp: on every memory a preset uses, a real op
// through ctxOp and the replay of its record take the same latency, for
// every start state a record is taken from: a save from the formatted
// and from the primed state, a restore from the imported state.
func TestOpLatencyMatchesRealOp(t *testing.T) {
	for _, v := range dramVariants() {
		ops := newFFOpTable(nil)
		var runs [2][3]sim.Duration
		for pass := range runs {
			p, err := New(v.cfg)
			if err != nil {
				t.Fatal(err)
			}
			p.ff.ops, p.ff.cycleOK = ops, true
			runs[pass] = ctxOpSequence(t, p)
			if got, want := p.FFStats().MEEOpsReplayed, uint64(3*pass); got != want {
				t.Fatalf("%s pass %d: %d ops replayed, want %d", v.name, pass, got, want)
			}
		}
		if ops.ran != 3 {
			t.Fatalf("%s: %d ops ran for real, want 3", v.name, ops.ran)
		}
		for i, what := range []string{"formatted save", "imported restore", "primed save"} {
			real, replay := runs[0][i], runs[1][i]
			if real <= 0 {
				t.Errorf("%s %s took %v", v.name, what, real)
			}
			if replay != real {
				t.Errorf("%s %s: replay took %v, real op %v", v.name, what, replay, real)
			}
		}
	}
}

// TestCtxOpFailureReleasesOpLock: a real op whose run fails, on a
// platform attached to a plane whose op table lacks the record, returns
// run's error, leaves the table's op lock free and publishes nothing.
func TestCtxOpFailureReleasesOpLock(t *testing.T) {
	p, err := New(ODRIPSConfig())
	if err != nil {
		t.Fatal(err)
	}
	plane := NewMemoPlane(nil, 0)
	plane.Attach(p)
	p.ff.cycleOK = true
	failed := errors.New("run failed")
	if _, err := p.ctxOp(true, ffStartFormatted, func() error { return failed }); !errors.Is(err, failed) {
		t.Fatalf("ctxOp returned %v, want run's error", err)
	}
	if !p.ff.ops.opMu.TryLock() {
		t.Fatal("a failed op left the op lock held")
	}
	p.ff.ops.opMu.Unlock()
	if _, ok := p.ff.ops.lookup(p.ffOpKeyFor(true, ffStartFormatted)); ok {
		t.Fatal("a failed op published a record")
	}
	if st := plane.Stats(); st.OpRecords != 0 || st.OpsRun != 0 {
		t.Fatalf("plane holds %d op records after %d real ops, want none", st.OpRecords, st.OpsRun)
	}
}

// opTwin runs cycles on a fresh platform of cfg in mode, attached to
// plane unless it is nil, and returns what a run shows of its ops: the
// result (its context save and restore latencies included), the flow
// trace and the fast-forward counters.
func opTwin(t *testing.T, cfg Config, plane *MemoPlane, mode FFMode, cycles []workload.Cycle) (Result, []FlowStep, FFStats) {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetFastForward(mode); err != nil {
		t.Fatal(err)
	}
	if plane != nil {
		plane.Attach(p)
	}
	res, err := p.RunCycles(cycles)
	if err != nil {
		t.Fatal(err)
	}
	return res, p.FlowTrace(), p.FFStats()
}

// TestMemoPlaneSharesOpsAcrossMemory: op records belong to the plane, not
// the memo class. A platform whose memo class differs from the first
// one's only in its memory — rate or technology — runs no MEE op for
// real: it replays all 8 saves and restores from the 3 records the first
// platform ran, priced on its own DRAM, and its result, flow trace and
// context latencies equal a full simulation's.
func TestMemoPlaneSharesOpsAcrossMemory(t *testing.T) {
	cycles := workload.Fixed(4, 2*sim.Millisecond, 8*sim.Millisecond)
	first := ODRIPSConfig()
	first.ForceDeepest = true
	firstRes, _, _ := opTwin(t, first, nil, FFOff, cycles)
	for _, v := range dramVariants() {
		name, cfg := v.name, v.cfg
		cfg.ForceDeepest = true
		if cfg == first {
			continue
		}
		plane := NewMemoPlane(nil, 0)
		opTwin(t, first, plane, FFOn, cycles)
		if st := plane.Stats(); st.OpRecords != 3 || st.OpsRun != 3 {
			t.Fatalf("%s: first platform left %d op records after %d real ops, want 3 and 3", name, st.OpRecords, st.OpsRun)
		}
		got, gotTrace, st := opTwin(t, cfg, plane, FFOn, cycles)
		want, wantTrace, _ := opTwin(t, cfg, nil, FFOff, cycles)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: result diverged from its fast-forward-off twin", name)
		}
		if !reflect.DeepEqual(gotTrace, wantTrace) {
			t.Errorf("%s: flow trace diverged from its fast-forward-off twin", name)
		}
		if got.CtxSave == firstRes.CtxSave || got.CtxRestore == firstRes.CtxRestore {
			t.Errorf("%s: context latencies %v/%v equal the first memory's: the replay did not price them on this DRAM", name, got.CtxSave, got.CtxRestore)
		}
		if st.MEEOpsReplayed != 8 || st.CyclesReplayed != 0 {
			t.Errorf("%s: %+v, want all 8 MEE ops replayed and no cycle", name, st)
		}
		if ps := plane.Stats(); ps.Classes != 2 || ps.OpRecords != 3 || ps.OpsRun != 3 {
			t.Errorf("%s: plane holds %d classes, %d op records after %d real ops; want 2, 3 and 3", name, ps.Classes, ps.OpRecords, ps.OpsRun)
		}
	}
}

// TestMemoPlaneLoadsOpsFromStore: a second plane over a store the first
// one flushed replays every op from its "meeops" entry, running none for
// real, whatever memo class asks first; an entry that does not decode
// degrades to a cold table that runs the ops and rewrites the entry,
// never to an error.
func TestMemoPlaneLoadsOpsFromStore(t *testing.T) {
	cycles := workload.Fixed(4, 2*sim.Millisecond, 8*sim.Millisecond)
	cfg := ODRIPSConfig()
	cfg.ForceDeepest = true
	other := cfg
	other.DRAMMTps = 800
	want, _, _ := opTwin(t, other, nil, FFOff, cycles)
	g := testPlatformGeom(t, cfg)

	dir := t.TempDir()
	_, plane := openPlane(t, dir, memostore.RW)
	runStandby(t, cfg, plane, FFOn, cycles)

	store, warm := openPlane(t, dir, memostore.RO)
	got, _, st := opTwin(t, other, warm, FFOn, cycles)
	if !reflect.DeepEqual(got, want) {
		t.Error("warm plane's result diverged from a full simulation")
	}
	if ps := warm.Stats(); st.MEEOpsReplayed != 8 || ps.OpsRun != 0 || ps.OpRecords != 3 {
		t.Errorf("warm plane: %d MEE ops replayed, %d run for real, %d records; want 8, 0, 3", st.MEEOpsReplayed, ps.OpsRun, ps.OpRecords)
	}
	if s := store.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("warm plane: store %+v, want the meeops hit and the new class's cycles miss", s)
	}

	rw, err := memostore.Open(dir, memostore.RW)
	if err != nil {
		t.Fatal(err)
	}
	rw.Save("meeops", ffOpGeomKey(g), []byte("not an op table"))
	healed := NewMemoPlane(rw, 0)
	got, _, st = opTwin(t, other, healed, FFOn, cycles)
	healed.FlushOps()
	if !reflect.DeepEqual(got, want) {
		t.Error("a run over an undecodable op table diverged from a full simulation")
	}
	if ps := healed.Stats(); st.MEEOpsReplayed != 5 || ps.OpsRun != 3 {
		t.Errorf("undecodable op table: %d MEE ops replayed, %d run for real; want 5 and 3", st.MEEOpsReplayed, ps.OpsRun)
	}
	payload, ok, err := rw.Load("meeops", ffOpGeomKey(g))
	if err != nil || !ok {
		t.Fatalf("rewritten op table: ok=%v err=%v", ok, err)
	}
	if _, ops, err := ffDecodeOpTable(payload); err != nil || len(ops) != 3 {
		t.Errorf("rewritten op table holds %d records (err %v), want 3", len(ops), err)
	}
}
