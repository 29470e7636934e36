package memostore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// reopen opens a second Store over an existing store's directory,
// emulating a fresh process (modulo the shared build fingerprint, which
// is a process property).
func reopen(t *testing.T, s *Store, mode Mode) *Store {
	t.Helper()
	n, err := Open(s.Dir(), mode)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return n
}

// fillStore saves n deterministic entries across two classes and returns
// the (class, key, payload) triples.
func fillStore(t *testing.T, s *Store, n int) (classes []string, keys, payloads [][]byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		class := "sweep"
		if i%2 == 1 {
			class = "trans"
		}
		key := []byte(fmt.Sprintf("cfg-%d", i))
		payload := []byte(fmt.Sprintf("payload-%d-%s", i, class))
		s.Save(class, key, payload)
		classes = append(classes, class)
		keys = append(keys, key)
		payloads = append(payloads, payload)
	}
	return classes, keys, payloads
}

func TestPackRoundTrip(t *testing.T) {
	s := openT(t, RW)
	classes, keys, payloads := fillStore(t, s, 10)

	cs, err := s.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if cs.Entries != 10 || cs.LooseMerged != 10 || cs.LooseRemoved != 10 || cs.Segment == "" {
		t.Fatalf("compact stats %+v", cs)
	}

	// A fresh open (≈ a fresh process of the same build) must serve every
	// entry from the segment: same payloads, all PackHits, no loose files.
	n := reopen(t, s, RO)
	for i := range keys {
		got, ok, err := n.Load(classes[i], keys[i])
		if err != nil || !ok || !bytes.Equal(got, payloads[i]) {
			t.Fatalf("entry %d: ok=%v err=%v got=%q want %q", i, ok, err, got, payloads[i])
		}
		gp, ok, err := n.LoadPacked(classes[i], keys[i])
		if err != nil || !ok || !bytes.Equal(gp, payloads[i]) {
			t.Fatalf("LoadPacked %d: ok=%v err=%v", i, ok, err)
		}
	}
	st := n.Stats()
	if st.PackHits != 20 || st.Hits != 20 || st.Misses != 0 {
		t.Fatalf("stats %+v, want 20 pack hits", st)
	}
	if st.Segments != 1 || st.PackedEntries != 10 || st.LooseEntries != 0 || st.DiskEntries != 10 {
		t.Fatalf("footprint %+v", st)
	}
	if st.IndexBytes == 0 || uint64(cs.SegmentBytes) != st.IndexBytes {
		t.Fatalf("index bytes %d, want segment size %d", st.IndexBytes, cs.SegmentBytes)
	}
}

func TestCompactIdempotentAndIncremental(t *testing.T) {
	s := openT(t, RW)
	fillStore(t, s, 6)
	cs1, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	// Same content → same content-addressed segment.
	cs2, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cs2.Segment != cs1.Segment || cs2.Entries != 6 || cs2.LooseMerged != 0 || cs2.SegmentsMerged != 1 || cs2.SegmentsRemoved != 0 {
		t.Fatalf("recompact %+v (first %+v)", cs2, cs1)
	}

	// New loose entries fold into a new segment; the old one is removed.
	s.Save("sweep", []byte("late"), []byte("late-payload"))
	cs3, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cs3.Entries != 7 || cs3.LooseMerged != 1 || cs3.SegmentsMerged != 1 || cs3.SegmentsRemoved != 1 || cs3.Segment == cs1.Segment {
		t.Fatalf("incremental compact %+v", cs3)
	}
	if got, ok, err := s.Load("sweep", []byte("late")); err != nil || !ok || string(got) != "late-payload" {
		t.Fatalf("late entry after compact: ok=%v err=%v", ok, err)
	}
	st := s.Stats()
	if st.Segments != 1 || st.PackedEntries != 7 {
		t.Fatalf("footprint after incremental compact %+v", st)
	}
}

// TestPackCorruptionMatrix flips, truncates, and rewrites segment bytes
// and asserts the fail-safe contract: every damaged form degrades to a
// miss (typed *CorruptError for structural damage, silent skew for
// foreign builds), never a false hit, never a panic.
func TestPackCorruptionMatrix(t *testing.T) {
	build := func(t *testing.T) (*Store, string) {
		s := openT(t, RW)
		fillStore(t, s, 4)
		cs, err := s.Compact()
		if err != nil {
			t.Fatal(err)
		}
		return s, filepath.Join(s.Dir(), cs.Segment)
	}

	t.Run("bitflips", func(t *testing.T) {
		s, seg := build(t)
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		// Positions: magic, count field, an entry body byte, the trailer.
		for _, off := range []int{0, packHeaderLen - 1, packHeaderLen + 10, len(data) - 1} {
			bad := append([]byte(nil), data...)
			bad[off] ^= 0xFF
			if err := os.WriteFile(seg, bad, 0o666); err != nil {
				t.Fatal(err)
			}
			n := reopen(t, s, RO)
			_, ok, lerr := n.Load("sweep", []byte("cfg-0"))
			if ok {
				t.Fatalf("offset %d: hit from damaged segment", off)
			}
			if _, isCorrupt := lerr.(*CorruptError); !isCorrupt {
				t.Fatalf("offset %d: err %v, want *CorruptError", off, lerr)
			}
			if st := n.Stats(); st.Corrupt != 1 || st.Segments != 0 {
				t.Fatalf("offset %d: stats %+v", off, st)
			}
		}
	})

	t.Run("truncated", func(t *testing.T) {
		s, seg := build(t)
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for _, keep := range []int{0, 3, packHeaderLen, len(data) - 1} {
			if err := os.WriteFile(seg, data[:keep], 0o666); err != nil {
				t.Fatal(err)
			}
			n := reopen(t, s, RO)
			_, ok, err := n.Load("sweep", []byte("cfg-0"))
			if ok {
				t.Fatalf("keep %d: hit from truncated segment", keep)
			}
			if err != nil {
				if _, isCorrupt := err.(*CorruptError); !isCorrupt {
					t.Fatalf("keep %d: untyped error %v", keep, err)
				}
			}
		}
	})

	t.Run("foreign-build-is-skew", func(t *testing.T) {
		s, seg := build(t)
		var foreign [32]byte
		foreign[0] = 0xEE
		kh := [32]byte{1, 2, 3}
		alien := EncodePackForFuzz(foreign, []string{"sweep"}, [][32]byte{kh}, [][]byte{[]byte("alien")})
		if err := os.WriteFile(seg, alien, 0o666); err != nil {
			t.Fatal(err)
		}
		n := reopen(t, s, RO)
		_, ok, err := n.Load("sweep", []byte("cfg-0"))
		if ok || err != nil {
			t.Fatalf("skewed segment: ok=%v err=%v, want silent miss", ok, err)
		}
		if st := n.Stats(); st.VersionSkew != 1 || st.Corrupt != 0 || st.Segments != 0 {
			t.Fatalf("stats %+v, want one skew", st)
		}
	})
}

// TestPackedWinsOverLoose pins the precedence: when an entry exists both
// packed and loose, the packed payload is served (within one build the
// two are byte-identical by determinism; the divergence here is
// artificial, to observe which path answered).
func TestPackedWinsOverLoose(t *testing.T) {
	s := openT(t, RW)
	key := []byte("the-key")
	s.Save("sweep", key, []byte("packed-payload"))
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// Re-save a divergent loose entry over the same (class, key).
	s.Save("sweep", key, []byte("loose-payload"))

	n := reopen(t, s, RO)
	got, ok, err := n.Load("sweep", key)
	if err != nil || !ok || string(got) != "packed-payload" {
		t.Fatalf("ok=%v err=%v got=%q, want the packed payload", ok, err, got)
	}
	// The shadowed loose duplicate must not double-count the entry.
	st := n.Stats()
	if st.DiskEntries != 1 || st.LooseEntries != 1 || st.PackedEntries != 1 {
		t.Fatalf("footprint %+v, want 1 unique entry (1 loose shadowed by 1 packed)", st)
	}
}

func TestStatsCountsUnpackedLoose(t *testing.T) {
	s := openT(t, RW)
	fillStore(t, s, 4)
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Save("sweep", []byte("fresh"), []byte("fresh-payload"))
	n := reopen(t, s, RO)
	st := n.Stats()
	if st.DiskEntries != 5 || st.PackedEntries != 4 || st.LooseEntries != 1 {
		t.Fatalf("footprint %+v, want 4 packed + 1 loose = 5 unique", st)
	}
}

// TestCompactWhileLoading races Compact against concurrent readers and
// asserts the no-transient-miss guarantee: every load throughout the
// compaction is a hit (run under -race in the tier-1 suite).
func TestCompactWhileLoading(t *testing.T) {
	s := openT(t, RW)
	classes, keys, payloads := fillStore(t, s, 32)

	var stop atomic.Bool
	var misses atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for i := range keys {
					got, ok, err := s.Load(classes[i], keys[i])
					if err != nil || !ok || !bytes.Equal(got, payloads[i]) {
						misses.Add(1)
					}
				}
			}
		}()
	}
	for round := 0; round < 3; round++ {
		if _, err := s.Compact(); err != nil {
			t.Errorf("Compact round %d: %v", round, err)
		}
		// Grow the store between rounds so each compact really rewrites.
		s.Save("sweep", []byte(fmt.Sprintf("extra-%d", round)), []byte("x"))
	}
	stop.Store(true)
	wg.Wait()
	if m := misses.Load(); m != 0 {
		t.Fatalf("%d loads missed during compaction, want 0", m)
	}
}

func TestCompactRemovesCorruptKeepsSkewed(t *testing.T) {
	s := openT(t, RW)
	s.Save("sweep", []byte("good"), []byte("good-payload"))

	corruptPath := filepath.Join(s.Dir(), "sweep-"+"00000000000000000000000000000000"+".memo")
	if err := os.WriteFile(corruptPath, []byte("garbage"), 0o666); err != nil {
		t.Fatal(err)
	}
	// A well-formed entry from another build: named consistently with its
	// own key hash so only the build fingerprint differs.
	var foreignFP [32]byte
	foreignFP[0] = 0x5A
	kh := [32]byte{9, 9, 9}
	skewed := encodeForFuzz(foreignFP, kh, []byte("foreign"))
	skewPath := filepath.Join(s.Dir(), looseName("sweep", kh))
	if err := os.WriteFile(skewPath, skewed, 0o666); err != nil {
		t.Fatal(err)
	}

	cs, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Entries != 1 || cs.LooseMerged != 1 || cs.CorruptRemoved != 1 {
		t.Fatalf("compact stats %+v", cs)
	}
	if _, err := os.Stat(corruptPath); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry still present (err=%v)", err)
	}
	if _, err := os.Stat(skewPath); err != nil {
		t.Fatalf("skewed entry should survive for its own build's compactor: %v", err)
	}
}

func TestCompactRequiresWritable(t *testing.T) {
	s := openT(t, RW)
	fillStore(t, s, 2)
	ro := reopen(t, s, RO)
	if _, err := ro.Compact(); err == nil {
		t.Fatal("read-only compact succeeded")
	}
	var nilStore *Store
	if _, err := nilStore.Compact(); err == nil {
		t.Fatal("nil-store compact succeeded")
	}
}

// TestFlightShares drives one leader and one follower until the follower
// observably joins the leader's in-flight call and receives its value.
// Each attempt terminates either way (the follower that misses the
// window leads its own instant flight), so the loop cannot hang; it
// converges on the first attempt in practice.
func TestFlightShares(t *testing.T) {
	var f Flight[int]
	for attempt := 0; attempt < 1000; attempt++ {
		release := make(chan struct{})
		started := make(chan struct{})
		entered := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(3)
		var v int
		var sharedOut bool
		var err error
		go func() {
			defer wg.Done()
			f.Do("k", func() (int, error) {
				close(started)
				<-release
				return 7, nil
			})
		}()
		go func() {
			defer wg.Done()
			<-started
			close(entered)
			v, sharedOut, err = f.Do("k", func() (int, error) { return 8, nil })
		}()
		go func() {
			defer wg.Done()
			<-entered
			runtime.Gosched()
			close(release)
		}()
		wg.Wait()
		if sharedOut {
			if v != 7 || err != nil {
				t.Fatalf("shared call got v=%d err=%v, want the leader's 7", v, err)
			}
			return
		}
	}
	t.Fatal("follower never joined the leader's flight in 1000 attempts")
}

// TestFlightInvariants stress-runs concurrent callers and checks the
// scheduling-independent invariants: every caller is exactly one of
// leader or sharer, computes equal leads, and errors propagate.
func TestFlightInvariants(t *testing.T) {
	var f Flight[int]
	var computes, leads, shares atomic.Int32
	const callers = 16
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := f.Do("k", func() (int, error) {
				computes.Add(1)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("v=%d err=%v", v, err)
			}
			if shared {
				shares.Add(1)
			} else {
				leads.Add(1)
			}
		}()
	}
	wg.Wait()
	if computes.Load() != leads.Load() || leads.Load()+shares.Load() != callers || leads.Load() < 1 {
		t.Fatalf("computes=%d leads=%d shares=%d", computes.Load(), leads.Load(), shares.Load())
	}
}

func TestLoadOrComputeSingleFlight(t *testing.T) {
	s := openT(t, RW)
	key := []byte("cold-key")
	var computes atomic.Int32
	compute := func() ([]byte, error) {
		computes.Add(1)
		return []byte("computed"), nil
	}

	const callers = 8
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := s.LoadOrCompute("sweep", key, compute)
			if err != nil || string(got) != "computed" {
				t.Errorf("got %q err=%v", got, err)
			}
		}()
	}
	wg.Wait()
	if c := computes.Load(); c < 1 || c > callers {
		t.Fatalf("computes=%d", c)
	}
	st := s.Stats()
	if st.FlightLeads+st.FlightShared+st.Hits == 0 {
		t.Fatalf("no flight or hit accounting: %+v", st)
	}

	// The result persisted: a second wave (and a fresh store) loads it
	// without computing.
	before := computes.Load()
	if got, err := s.LoadOrCompute("sweep", key, compute); err != nil || string(got) != "computed" {
		t.Fatalf("warm wave: %q %v", got, err)
	}
	n := reopen(t, s, RO)
	if got, err := n.LoadOrCompute("sweep", key, compute); err != nil || string(got) != "computed" {
		t.Fatalf("fresh store: %q %v", got, err)
	}
	if computes.Load() != before {
		t.Fatalf("warm waves recomputed (%d → %d)", before, computes.Load())
	}
}

func TestLoadOrComputeNilStore(t *testing.T) {
	var s *Store
	got, err := s.LoadOrCompute("sweep", []byte("k"), func() ([]byte, error) { return []byte("v"), nil })
	if err != nil || string(got) != "v" {
		t.Fatalf("nil store: %q %v", got, err)
	}
}
