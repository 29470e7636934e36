package memostore

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func openT(t *testing.T, mode Mode) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), mode)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if s == nil {
		t.Fatalf("Open returned nil store for mode %v", mode)
	}
	return s
}

// reopen opens a second Store over an existing store's directory,
// emulating a fresh process of the same build: the build fingerprint
// belongs to the running image, so both stores share it.
func reopen(t *testing.T, s *Store, mode Mode) *Store {
	t.Helper()
	n, err := Open(s.Dir(), mode)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return n
}

func TestRoundTrip(t *testing.T) {
	s := openT(t, RW)
	key := []byte("config-class-A|res=42")
	payload := []byte("the memoized result bytes")

	if _, ok, err := s.Load("sweep", key); ok || err != nil {
		t.Fatalf("cold load: ok=%v err=%v, want miss", ok, err)
	}
	s.Save("sweep", key, payload)
	got, ok, err := s.Load("sweep", key)
	if err != nil || !ok {
		t.Fatalf("warm load: ok=%v err=%v", ok, err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload mismatch: %q != %q", got, payload)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Corrupt != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestClassAndKeySeparation(t *testing.T) {
	s := openT(t, RW)
	s.Save("sweep", []byte("k1"), []byte("v1"))
	if _, ok, err := s.Load("trans", []byte("k1")); err != nil || ok {
		t.Fatalf("hit across classes (ok=%v err=%v)", ok, err)
	}
	if _, ok, err := s.Load("sweep", []byte("k2")); err != nil || ok {
		t.Fatalf("hit across keys (ok=%v err=%v)", ok, err)
	}
}

func TestModes(t *testing.T) {
	dir := t.TempDir()
	rw, err := Open(dir, RW)
	if err != nil {
		t.Fatal(err)
	}
	rw.Save("c", []byte("k"), []byte("v"))

	ro, err := Open(dir, RO)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := ro.Load("c", []byte("k")); err != nil || !ok {
		t.Fatalf("ro: want hit (ok=%v err=%v)", ok, err)
	}
	ro.Save("c", []byte("k2"), []byte("v2"))
	if _, ok, err := ro.Load("c", []byte("k2")); err != nil || ok {
		t.Fatalf("ro: save must not persist (ok=%v err=%v)", ok, err)
	}

	var off *Store // nil store behaves as Off everywhere
	if off.Mode() != Off {
		t.Fatal("nil store mode")
	}
	off.Save("c", []byte("k"), []byte("v"))
	if _, ok, err := off.Load("c", []byte("k")); ok || err != nil {
		t.Fatal("nil store must miss")
	}
	if s, err := Open(dir, Off); err != nil || s != nil {
		t.Fatalf("Open(Off) = %v, %v; want nil, nil", s, err)
	}
}

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
	}{{"off", Off}, {"rw", RW}, {"ro", RO}} {
		got, err := ParseMode(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseMode(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String round-trip: %v -> %q", got, got.String())
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("want error for bogus mode")
	}
	// The former audit mode names its replacement.
	if _, err := ParseMode("verify"); err == nil || !strings.Contains(err.Error(), "-fastforward verify") {
		t.Fatalf("ParseMode(verify) = %v; want an error naming -fastforward verify", err)
	}
}

// TestCorruptionMatrix is the satellite corruption/version matrix: every
// way an entry can be damaged or version-skewed must degrade to a miss
// (recomputation), never a bogus hit, a panic, or a crash.
func TestCorruptionMatrix(t *testing.T) {
	key := []byte("the-key")
	payload := []byte("the-payload-bytes-of-this-entry")

	write := func(t *testing.T, s *Store) string {
		t.Helper()
		s.Save("c", key, payload)
		path := s.EntryPath("c", key)
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("entry not written: %v", err)
		}
		return path
	}

	mutate := map[string]struct {
		change      func(t *testing.T, path string)
		wantCorrupt bool // else counted as version skew / miss
	}{
		"truncated-header": {func(t *testing.T, path string) {
			data := readT(t, path)
			writeT(t, path, data[:headerLen/2])
		}, true},
		"truncated-payload": {func(t *testing.T, path string) {
			data := readT(t, path)
			writeT(t, path, data[:len(data)-trailerLen-3])
		}, true},
		"empty-file": {func(t *testing.T, path string) {
			writeT(t, path, nil)
		}, true},
		"flipped-magic": {func(t *testing.T, path string) {
			flipByte(t, path, 0)
		}, true},
		"flipped-payload-byte": {func(t *testing.T, path string) {
			flipByte(t, path, headerLen+2)
		}, true},
		"flipped-checksum-byte": {func(t *testing.T, path string) {
			data := readT(t, path)
			flipByte(t, path, len(data)-1)
		}, true},
		"schema-version-bump": {func(t *testing.T, path string) {
			flipByte(t, path, len(magic)) // first schema byte
		}, false},
		"build-fingerprint-mismatch": {func(t *testing.T, path string) {
			flipByte(t, path, len(magic)+4) // first buildFP byte
		}, false},
		"key-hash-mismatch": {func(t *testing.T, path string) {
			flipByte(t, path, len(magic)+4+32) // first keyHash byte
		}, false},
		"trailing-garbage": {func(t *testing.T, path string) {
			data := readT(t, path)
			writeT(t, path, append(data, 0xAA))
		}, true},
	}

	names := make([]string, 0, len(mutate))
	for name := range mutate {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tc := mutate[name]
		t.Run(name, func(t *testing.T) {
			s := openT(t, RW)
			path := write(t, s)
			tc.change(t, path)
			got, ok, err := s.Load("c", key)
			if ok || got != nil {
				t.Fatalf("damaged entry returned a hit (%q)", got)
			}
			if tc.wantCorrupt {
				if _, isCorrupt := err.(*CorruptError); !isCorrupt {
					t.Fatalf("want *CorruptError, got %v", err)
				}
			} else if err != nil {
				t.Fatalf("version skew must be a silent miss, got %v", err)
			}
			st := s.Stats()
			if tc.wantCorrupt && st.Corrupt != 1 {
				t.Fatalf("stats %+v, want Corrupt=1", st)
			}
			if !tc.wantCorrupt && st.Corrupt != 0 {
				t.Fatalf("stats %+v, want no corruption count", st)
			}
			// The damaged entry must not poison a recompute-and-save.
			s.Save("c", key, payload)
			got, ok, err = s.Load("c", key)
			if err != nil || !ok || string(got) != string(payload) {
				t.Fatalf("recompute-and-save after damage: ok=%v err=%v got=%q", ok, err, got)
			}
		})
	}
}

// TestConcurrentWriters races many rw writers (and readers) on the same
// entry under -race: every load observes either a miss or one writer's
// complete payload — never a torn entry.
func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	key := []byte("contended")
	valid := map[string]bool{}
	const writers = 8
	for i := 0; i < writers; i++ {
		valid[string(payloadFor(i))] = true
	}

	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		s, err := Open(dir, RW)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s *Store, i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s.Save("c", key, payloadFor(i))
				if got, ok, err := s.Load("c", key); err != nil {
					t.Errorf("load: %v", err)
				} else if ok && !valid[string(got)] {
					t.Errorf("torn payload %q", got)
				}
			}
		}(s, i)
	}
	wg.Wait()

	s, err := Open(dir, RO)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Load("c", key)
	if err != nil || !ok || !valid[string(got)] {
		t.Fatalf("final load: ok=%v err=%v got=%q", ok, err, got)
	}
	// No temp-file strays may survive the races' renames.
	matches, err := filepath.Glob(filepath.Join(dir, "*.tmp.*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("stray temp files: %v", matches)
	}
}

func TestOversizedPayloadDropped(t *testing.T) {
	s := openT(t, RW)
	big := make([]byte, maxPayload+1)
	s.Save("c", []byte("k"), big)
	if _, ok, err := s.Load("c", []byte("k")); err != nil || ok {
		t.Fatalf("oversized payload must not persist (ok=%v err=%v)", ok, err)
	}
}

func payloadFor(i int) []byte {
	return []byte{byte('A' + i), byte('0' + i), byte(i)}
}

func readT(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeT(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
}

func flipByte(t *testing.T, path string, off int) {
	t.Helper()
	data := readT(t, path)
	if off >= len(data) {
		t.Fatalf("flip offset %d beyond entry (%d bytes)", off, len(data))
	}
	data[off] ^= 0x01
	writeT(t, path, data)
}

// TestStatsFootprint checks the Stats() point-in-time fields: on-disk
// entry count/bytes.
func TestStatsFootprint(t *testing.T) {
	s := openT(t, RW)
	if st := s.Stats(); st.DiskEntries != 0 || st.DiskBytes != 0 {
		t.Fatalf("fresh store footprint %+v", st)
	}
	s.Save("sweep", []byte("k1"), []byte("payload-one"))
	s.Save("trans", []byte("k2"), []byte("p2"))
	st := s.Stats()
	if st.DiskEntries != 2 {
		t.Fatalf("DiskEntries = %d want 2", st.DiskEntries)
	}
	wantBytes := uint64(0)
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		wantBytes += uint64(info.Size())
	}
	if st.DiskBytes != wantBytes {
		t.Fatalf("DiskBytes = %d want %d", st.DiskBytes, wantBytes)
	}
	// A nil store reports a zero footprint rather than erroring.
	var nilStore *Store
	if st := nilStore.Stats(); st != (Stats{}) {
		t.Fatalf("nil store stats %+v", st)
	}
}

// TestLeftoverPackSegmentIgnored upgrades a store written by a build
// that still compacted entries into pack-<hex>.pack segments: loose
// entries keep serving, a key only the segment held is a plain miss, and
// the segment counts toward neither footprint field (users may delete
// such leftovers).
func TestLeftoverPackSegmentIgnored(t *testing.T) {
	s := openT(t, RW)
	s.Save("sweep", []byte("loose-key"), []byte("loose-payload"))
	want := s.Stats()
	writeT(t, filepath.Join(s.Dir(), "pack-0123456789abcdef.pack"), []byte("ODRPACK1 arbitrary leftover segment bytes"))

	n := reopen(t, s, RO)
	if got, ok, err := n.Load("sweep", []byte("loose-key")); err != nil || !ok || string(got) != "loose-payload" {
		t.Fatalf("loose entry beside a leftover segment: ok=%v err=%v got=%q", ok, err, got)
	}
	if got, ok, err := n.Load("sweep", []byte("packed-only-key")); got != nil || ok || err != nil {
		t.Fatalf("segment-only key: got=%q ok=%v err=%v, want (nil, false, nil)", got, ok, err)
	}
	if st := n.Stats(); st.DiskEntries != want.DiskEntries || st.DiskBytes != want.DiskBytes || st.DiskEntries != 1 {
		t.Fatalf("footprint %d entries / %d B counts the segment, want %d / %d",
			st.DiskEntries, st.DiskBytes, want.DiskEntries, want.DiskBytes)
	}
}

// TestOpenCollectsStaleTmp: a writer that died between create and
// rename leaves a *.memo.tmp.<pid>.<seq> file. Opening the store rw
// removes such files once they are older than DefaultClaimStaleAfter and
// counts them; a fresh one (a live writer's) stays, and ro opens remove
// nothing.
func TestOpenCollectsStaleTmp(t *testing.T) {
	dir := t.TempDir()
	plant := func(name string, age time.Duration) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("partial"), 0o666); err != nil {
			t.Fatal(err)
		}
		// Age the file relative to the mtime the filesystem just gave it.
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		when := info.ModTime().Add(-age)
		if err := os.Chtimes(path, when, when); err != nil {
			t.Fatal(err)
		}
		return path
	}
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}
	stale := plant("cycles-00ff.memo.tmp.4242.7", 2*DefaultClaimStaleAfter)
	fresh := plant("cycles-00ff.memo.tmp.4243.1", 0)
	claim := plant("cycles-00ff.memo.claim", 2*DefaultClaimStaleAfter)

	ro, err := Open(dir, RO)
	if err != nil {
		t.Fatal(err)
	}
	if !exists(stale) || ro.Stats().TmpCollected != 0 {
		t.Fatalf("ro open collected temp files (stale exists %v, stats %+v)", exists(stale), ro.Stats())
	}

	rw, err := Open(dir, RW)
	if err != nil {
		t.Fatal(err)
	}
	if exists(stale) {
		t.Error("rw open left a stale temp file")
	}
	if !exists(fresh) {
		t.Error("rw open removed a fresh temp file")
	}
	if !exists(claim) {
		t.Error("rw open removed a claim file; claims age out through AwaitClaimed")
	}
	if got := rw.Stats().TmpCollected; got != 1 {
		t.Errorf("TmpCollected = %d, want 1", got)
	}
}
