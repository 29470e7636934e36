package platform

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"odrips/internal/clock"
	"odrips/internal/mee"
	"odrips/internal/memostore"
	"odrips/internal/power"
	"odrips/internal/sim"
	"odrips/internal/workload"
)

// openPlane opens the store in dir and builds a fresh memo plane over
// it, as a new process would see the store.
func openPlane(t *testing.T, dir string, mode memostore.Mode) (*memostore.Store, *MemoPlane) {
	t.Helper()
	s, err := memostore.Open(dir, mode)
	if err != nil {
		t.Fatal(err)
	}
	return s, NewMemoPlane(s, 0)
}

// runStandby runs cycles on a platform in the given fast-forward mode,
// attached to plane (nil keeps the platform's cycle memo to itself), and
// then flushes plane's classes and op table, as a program does before it
// exits.
func runStandby(t *testing.T, cfg Config, plane *MemoPlane, mode FFMode, cycles []workload.Cycle) (Result, FFStats) {
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
	if plane != nil {
		plane.Flush()
		plane.FlushOps()
	}
	return res, p.FFStats()
}

func TestPersistBundleCodecRoundTrip(t *testing.T) {
	records := testCycleRecords()
	payload := ffEncodeBundle(records)
	decoded, err := ffDecodeBundle(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, records) {
		t.Fatalf("bundle did not round-trip:\n got %#v\nwant %#v", decoded, records)
	}
	if again := ffEncodeBundle(decoded); !bytes.Equal(again, payload) {
		t.Fatal("re-encoding a decoded bundle changed its bytes")
	}
}

// TestPersistOpTableCodecRoundTrip: a geometry's entry carries exactly
// that geometry's records, and decodes to them and its geometry.
func TestPersistOpTableCodecRoundTrip(t *testing.T) {
	ops := testOpRecords()
	for _, g := range []ffOpGeom{testOpGeom(3200), testOpGeom(16)} {
		payload := ffEncodeOpTable(g, ops)
		gotGeom, got, err := ffDecodeOpTable(payload)
		if err != nil {
			t.Fatal(err)
		}
		want := ffOps{}
		for k, r := range ops {
			if k.geom == g {
				want[k] = r
			}
		}
		if gotGeom != g || !reflect.DeepEqual(got, want) {
			t.Fatalf("geometry %+v did not round-trip:\n got %+v %#v\nwant %#v", g, gotGeom, got, want)
		}
		if again := ffEncodeOpTable(gotGeom, got); !bytes.Equal(again, payload) {
			t.Fatal("re-encoding a decoded op table changed its bytes")
		}
	}
	if n := len(ffEncodeOpTable(testOpGeom(3200), ops)); n != 6*8+3*ffOpRecordSize {
		t.Errorf("a full geometry encodes to %d bytes, want %d", n, 6*8+3*ffOpRecordSize)
	}
}

// testCycleRecords is three cycle records under two keys, exercising
// every field and both windows.
func testCycleRecords() ffRecords {
	mk := func(mut func(*cycleRecord)) *cycleRecord {
		cr := &cycleRecord{
			dur:        30 * sim.Second,
			endFP:      [32]byte{1, 2, 3},
			replayable: true,
			nomD:       []power.Energy{{PJ: 1, ZJ: 2}, {PJ: -3, ZJ: 4}},
			battD:      []power.Energy{{PJ: 5}, {ZJ: -6}},
			idleByCmpD: []power.Energy{{}, {PJ: 7, ZJ: 8}},
			resD:       [ffNumStates]sim.Duration{1, 2, 3, 4},
			enD:        [ffNumStates]power.Energy{{PJ: 9}, {}, {ZJ: 10}, {}},
			entriesD:   1, exitsD: 1,
			entryTotalD: 12, exitTotalD: 13,
			ctxSaveLat: 14, ctxRestore: 15, ctxVerifiedD: 16,
			wakeD:        [3]uint64{1, 0, 2},
			hubWakeD:     [3]uint64{0, 3, 0},
			endWakeFired: true,
			shallowD:     map[string]uint64{},
			mainTimerP:   ctrPatch{changed: true, baseD: 17, anchorOff: -18, running: true},
			unitFastP:    ctrPatch{},
			x24P:         oscPatch{changed: true, stableOff: 19},
			ltrTimers:    nil,
			engPresent:   true, rootD: 20, endPrimed: true,
			steps: make([]FlowStep, 0),
		}
		if mut != nil {
			mut(cr)
		}
		return cr
	}
	window := func(lo, hi uint64) clock.Window {
		return clock.Window{
			Lo: clock.Residue{Hi: 3, Lo: lo}, Hi: clock.Residue{Hi: 3, Lo: hi},
			AgeLo: 1, AgeHi: math.MaxInt64,
		}
	}
	return ffRecords{
		{fp: [32]byte{0xAA}, active: 0, idle: 30 * sim.Second, wake: workload.WakeTimer}: {
			mk(func(cr *cycleRecord) { cr.win = [2]clock.Window{window(10, 20), window(0, 1<<63)} }),
			mk(func(cr *cycleRecord) {
				cr.win = [2]clock.Window{window(20, 30), {AgeLo: -5, AgeHi: -4, Hi: clock.Residue{Lo: 9}}}
				cr.dur++
			}),
		},
		{fp: [32]byte{0xBB}, active: 5, idle: 29 * sim.Second, wake: workload.WakeExternal}: {mk(func(cr *cycleRecord) {
			cr.shallowD["C6"] = 2
			cr.ltrTimers = []ltrPatch{{owner: "os-wake", rel: -42}, {owner: "nic", rel: 7}}
			cr.steps = []FlowStep{
				{Flow: "entry", Step: "save-ctx-dram", At: 100, Duration: 50, EnergyUJ: 1.25},
				{Flow: "exit", Step: "restore", At: 200, Duration: 60, EnergyUJ: 0},
			}
			cr.replayable = false
		})},
	}
}

// testOpGeom is a region geometry of blocks data blocks.
func testOpGeom(blocks int) ffOpGeom {
	return ffOpGeom{dataBlocks: blocks, base: 0x1000, cacheLines: 256, imageLen: blocks*64 - 5}
}

// testOpRecords is one op record per start state over one geometry, and
// a primed save over a second.
func testOpRecords() ffOps {
	key := func(save bool, start ffOpStart, blocks int) ffOpKey {
		return ffOpKey{save: save, start: start, geom: testOpGeom(blocks)}
	}
	rec := func(n uint64) ffOpRecord {
		return ffOpRecord{
			op: mee.OpRecord{
				RootDelta:  n,
				Stats:      mee.Stats{DataReads: 1, DataWrites: n, MetaReads: 3, MetaWrites: 4, CacheHits: 5, CacheMisses: 6},
				Writebacks: 7,
			},
			digest: 0xFEEDFACE ^ n,
		}
	}
	return ffOps{
		key(true, ffStartFormatted, 3200): rec(3200),
		key(false, ffStartImported, 3200): rec(0),
		key(true, ffStartPrimed, 3200):    rec(3201),
		key(true, ffStartPrimed, 16):      rec(16),
	}
}

func TestPersistBundleDecodeRejectsDamage(t *testing.T) {
	records := ffRecords{
		{fp: [32]byte{1}}: {{
			nomD: []power.Energy{{PJ: 1}}, battD: []power.Energy{{}}, idleByCmpD: []power.Energy{{}},
			shallowD: map[string]uint64{}, steps: make([]FlowStep, 0),
		}},
	}
	good := ffEncodeBundle(records)
	v4 := append(append([]byte(nil), good...), make([]byte, 8)...) // a v4 payload: an empty op section
	v4[0] = 4
	for name, bad := range map[string][]byte{
		"truncated":     good[:len(good)-3],
		"trailing":      append(append([]byte(nil), good...), 1),
		"empty":         {},
		"version-skew":  append([]byte{99}, good[1:]...),
		"v4":            v4,
		"hostile-count": append(append([]byte(nil), good[:8]...), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF),
	} {
		if _, err := ffDecodeBundle(bad); err == nil {
			t.Errorf("%s: decode accepted damaged bundle", name)
		}
	}
}

func TestPersistOpTableDecodeRejectsDamage(t *testing.T) {
	good := ffEncodeOpTable(testOpGeom(3200), testOpRecords())
	first := 6 * 8 // version, geometry, count
	rec := func(i int) []byte { return good[first+i*ffOpRecordSize : first+(i+1)*ffOpRecordSize] }
	with := func(recs ...[]byte) []byte {
		out := append([]byte(nil), good[:first]...)
		out[first-8] = byte(len(recs))
		for _, r := range recs {
			out = append(out, r...)
		}
		return out
	}
	setStart := func(i int, start byte) []byte {
		out := append([]byte(nil), good...)
		out[first+i*ffOpRecordSize+1] = start
		return out
	}
	flipSave := append([]byte(nil), good...)
	flipSave[first] ^= 1 // the imported restore becomes an imported save
	for name, bad := range map[string][]byte{
		"truncated":        good[:len(good)-3],
		"truncated-record": good[:len(good)-ffOpRecordSize],
		"trailing":         append(append([]byte(nil), good...), 1),
		"empty":            {},
		"version-skew":     append([]byte{99}, good[1:]...),
		"hostile-count":    append(append([]byte(nil), good[:first-8]...), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF),
		"no-start-state":   setStart(0, byte(ffNoStart)),
		"bad-start-state":  setStart(0, 9),
		"save-from-import": flipSave,
		"out-of-order":     with(rec(1), rec(0), rec(2)),
		"duplicate-key":    with(rec(0), rec(0)),
		"fourth-record":    with(rec(0), rec(1), rec(2), rec(2)),
	} {
		if _, _, err := ffDecodeOpTable(bad); err == nil {
			t.Errorf("%s: decode accepted a damaged op table", name)
		}
	}
}

// TestPersistWarmReplay is the persistence layer's core behavior: a
// second "process" (fresh plane, disk kept) replays every cycle
// of a jittered workload from the persisted memo, byte-identically.
func TestPersistWarmReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := ODRIPSConfig()
	cycles := workload.ConnectedStandby(40, 7)

	// Baseline without any store.
	base, _ := runStandby(t, cfg, nil, FFOn, cycles)

	store, plane := openPlane(t, dir, memostore.RW)
	cold, coldStats := runStandby(t, cfg, plane, FFOn, cycles)
	if !reflect.DeepEqual(base, cold) {
		t.Fatal("rw cold run diverged from store-off run")
	}
	if coldStats.CyclesRecorded == 0 {
		t.Fatal("cold run recorded nothing")
	}
	if st := store.Stats(); st.Writes == 0 {
		t.Fatalf("cold run persisted nothing: %+v", st)
	}

	// A boundary with a pending scheduler event (e.g. after a thermal
	// wake) is ineligible in cold and warm runs alike, so such cycles can
	// never be memoized; everything the cold run recorded must replay.
	want := coldStats.CyclesRecorded
	if want < uint64(len(cycles))-4 {
		t.Fatalf("cold run recorded only %d/%d cycles", want, len(cycles))
	}

	// Same process, records shared in memory through the plane.
	warmMem, memStats := runStandby(t, cfg, plane, FFOn, cycles)
	if !reflect.DeepEqual(base, warmMem) {
		t.Fatal("in-process warm run diverged")
	}
	if memStats.CyclesReplayed != want {
		t.Fatalf("in-process warm run replayed %d cycles, cold recorded %d", memStats.CyclesReplayed, want)
	}

	// Fresh "process": a new plane over the same store reloads from disk.
	warmDisk, diskStats := runStandby(t, cfg, NewMemoPlane(store, 0), FFOn, cycles)
	if !reflect.DeepEqual(base, warmDisk) {
		t.Fatal("disk-warm run diverged")
	}
	if diskStats.CyclesReplayed != want {
		t.Fatalf("disk-warm run replayed %d cycles, cold recorded %d", diskStats.CyclesReplayed, want)
	}
	if diskStats.CyclesRecorded != 0 {
		t.Fatalf("disk-warm run re-recorded %d cycles", diskStats.CyclesRecorded)
	}
}

// TestPersistVerifyCleanAndRO: an ro store under -fastforward=verify
// re-simulates every loaded class (no replays, identical output, no
// writes); plain ro mode replays but never writes.
func TestPersistVerifyCleanAndRO(t *testing.T) {
	dir := t.TempDir()
	cfg := ODRIPSConfig()
	cycles := workload.ConnectedStandby(25, 3)
	base, _ := runStandby(t, cfg, nil, FFOn, cycles)

	_, rwPlane := openPlane(t, dir, memostore.RW)
	runStandby(t, cfg, rwPlane, FFOn, cycles)

	entries := func() int {
		names, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return len(names)
	}
	before := entries()
	verStore, verPlane := openPlane(t, dir, memostore.RO)
	verified, verStats := runStandby(t, cfg, verPlane, FFVerify, cycles)
	if !reflect.DeepEqual(base, verified) {
		t.Fatal("verify run diverged")
	}
	if verStats.CyclesReplayed != 0 {
		t.Fatalf("verify mode replayed %d disk-loaded cycles", verStats.CyclesReplayed)
	}
	if st := verStore.Stats(); st.Hits == 0 || st.Writes != 0 {
		t.Fatalf("verify run over ro store: %+v (want hits, no writes)", st)
	}

	roStore, roPlane := openPlane(t, dir, memostore.RO)
	roRes, roStats := runStandby(t, cfg, roPlane, FFOn, cycles)
	if !reflect.DeepEqual(base, roRes) {
		t.Fatal("ro run diverged")
	}
	if roStats.CyclesReplayed != uint64(len(cycles)) {
		t.Fatalf("ro warm run replayed %d/%d", roStats.CyclesReplayed, len(cycles))
	}
	if got := entries(); got != before {
		t.Fatalf("ro mode changed the store: %d -> %d entries", before, got)
	}
	if st := roStore.Stats(); st.Writes != 0 {
		t.Fatalf("ro mode wrote: %+v", st)
	}
}

// TestPersistVerifyDetectsTamper plants a subtly wrong record in the
// store and checks that an ro store under -fastforward=verify fails the
// run instead of trusting it.
func TestPersistVerifyDetectsTamper(t *testing.T) {
	dir := t.TempDir()
	cfg := ODRIPSConfig()
	cycles := workload.ConnectedStandby(10, 5)

	store, plane := openPlane(t, dir, memostore.RW)
	runStandby(t, cfg, plane, FFOn, cycles)

	// Tamper: load the bundle, nudge one record's energy delta, save it
	// back through the store (valid envelope, wrong content).
	key := []byte(MemoClassKey(cfg))
	payload, ok, err := store.Load("cycles", key)
	if err != nil || !ok {
		t.Fatalf("bundle load: ok=%v err=%v", ok, err)
	}
	records, err := ffDecodeBundle(payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, list := range records {
		for _, cr := range list {
			cr.nomD[0].PJ++
		}
	}
	store.Save("cycles", key, ffEncodeBundle(records))

	_, roPlane := openPlane(t, dir, memostore.RO)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetFastForward(FFVerify); err != nil {
		t.Fatal(err)
	}
	roPlane.Attach(p)
	if _, err := p.RunCycles(cycles); err == nil || !strings.Contains(err.Error(), "fastforward verify: cycle record diverged") {
		t.Fatalf("verify accepted a tampered record (err=%v)", err)
	}
}

// TestPersistCorruptEntryRecomputes: a damaged store entry degrades to a
// cold run with identical results.
func TestPersistCorruptEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	cfg := ODRIPSConfig()
	cycles := workload.ConnectedStandby(10, 11)
	base, _ := runStandby(t, cfg, nil, FFOn, cycles)

	store, plane := openPlane(t, dir, memostore.RW)
	runStandby(t, cfg, plane, FFOn, cycles)
	path := store.EntryPath("cycles", []byte(MemoClassKey(cfg)))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}

	res, stats := runStandby(t, cfg, NewMemoPlane(store, 0), FFOn, cycles)
	if !reflect.DeepEqual(base, res) {
		t.Fatal("corrupt-cache run diverged from cold run")
	}
	if stats.CyclesReplayed != 0 {
		t.Fatalf("corrupt cache replayed %d cycles", stats.CyclesReplayed)
	}
	if st := store.Stats(); st.Corrupt == 0 {
		t.Fatalf("corruption not observed: %+v", st)
	}
	// The recompute rewrote a valid bundle; a third process is warm again.
	_, warmStats := runStandby(t, cfg, NewMemoPlane(store, 0), FFOn, cycles)
	if warmStats.CyclesReplayed != uint64(len(cycles)) {
		t.Fatalf("self-heal failed: replayed %d/%d", warmStats.CyclesReplayed, len(cycles))
	}
}

// TestPersistVerifyDetectsOpTamper: -fastforward verify re-executes
// every MEE op and diffs it against the op table's record, even one a
// fresh plane loaded from the store and never recorded itself, and names
// what diverged: the traffic, the start-state digest, or the latency the
// record replays at. A cache-hit count is traffic the latency does not
// price; a metadata read is both.
func TestPersistVerifyDetectsOpTamper(t *testing.T) {
	cfg := ODRIPSConfig()
	cycles := workload.Fixed(3, 0, 30*sim.Second)
	for name, tc := range map[string]struct {
		tamper  func(*ffOpRecord)
		want    []string
		mustNot []string
	}{
		"cache-hits": {func(r *ffOpRecord) { r.op.Stats.CacheHits++ }, []string{"traffic"}, []string{"latency", "start digest"}},
		"meta-reads": {func(r *ffOpRecord) { r.op.Stats.MetaReads++ }, []string{"traffic", "latency"}, []string{"start digest"}},
		"digest":     {func(r *ffOpRecord) { r.digest ^= 1 }, []string{"start digest"}, []string{"traffic", "latency"}},
	} {
		dir := t.TempDir()
		store, plane := openPlane(t, dir, memostore.RW)
		runStandby(t, cfg, plane, FFOn, cycles)

		g := testPlatformGeom(t, cfg)
		payload, ok, err := store.Load("meeops", ffOpGeomKey(g))
		if err != nil || !ok {
			t.Fatalf("op table load: ok=%v err=%v", ok, err)
		}
		_, ops, err := ffDecodeOpTable(payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(ops) != 3 {
			t.Fatalf("persisted %d op records, want 3 (formatted save, imported restore, primed save)", len(ops))
		}
		for k, r := range ops {
			if k.save && k.start == ffStartFormatted {
				tc.tamper(&r)
				ops[k] = r
			}
		}
		store.Save("meeops", ffOpGeomKey(g), ffEncodeOpTable(g, ops))

		// A fresh platform's first save starts from the formatted state.
		_, roPlane := openPlane(t, dir, memostore.RO)
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.SetFastForward(FFVerify); err != nil {
			t.Fatal(err)
		}
		roPlane.Attach(p)
		_, err = p.RunCycles(cycles)
		if err == nil || !strings.Contains(err.Error(), "fastforward verify: save diverged") {
			t.Errorf("%s: verify accepted a tampered op record (err=%v)", name, err)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: %v does not name the %s", name, err, w)
			}
		}
		for _, w := range tc.mustNot {
			if strings.Contains(err.Error(), w) {
				t.Errorf("%s: %v names the %s, which matched", name, err, w)
			}
		}
	}
}

// testPlatformGeom returns the op geometry of cfg's platforms.
func testPlatformGeom(t *testing.T, cfg Config) ffOpGeom {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p.ffOpKeyFor(true, ffStartFormatted).geom
}
