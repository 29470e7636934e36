// Package memostore is a disk-persisted, content-addressed, versioned
// store for the simulator's memoization layers (DESIGN.md §13): the
// fast-forward engine's steady-state cycle records and the experiment
// runner's sweep-point/transition memos.
//
// Soundness rests on three properties, each enforced structurally:
//
//   - Content addressing. An entry is stored under the hash of its full
//     logical key (config fingerprint class), and the un-truncated key
//     hash is repeated inside the entry header, so a filename collision
//     degrades to a miss, never to a wrong payload.
//
//   - Wholesale invalidation. Every entry carries the store schema
//     version and a build fingerprint (the SHA-256 of the running
//     executable). Any code change — simulator behavior, record layout,
//     compiler — changes the build fingerprint and turns the whole cache
//     into misses. There is no partial-invalidation logic to get wrong.
//
//   - Fail-safe loads. A corrupt, truncated, or version-mismatched entry
//     is reported as a miss (optionally with a typed *CorruptError
//     diagnostic); Load never panics and never returns a payload whose
//     checksum, key hash, version, and build fingerprint did not all
//     verify. Callers therefore recompute — the exact cold-path behavior
//     — and results stay byte-identical.
//
// Writes go through a unique temp file in the store directory followed
// by os.Rename, so concurrent writers (two rw processes, or worker
// goroutines) can race freely: readers only ever observe a complete
// entry or none.
//
// Every entry is one loose file, <class>-<hash>.memo, and that is the
// store's only on-disk form. The claim protocol (claim.go) arranges for
// each cold key to be computed once fleet-wide (DESIGN.md §17); it
// inherits the three properties above unchanged.
package memostore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Mode selects the store's behavior, mirroring the -memocache flag.
type Mode int32

const (
	// Off disables the store: loads miss, saves drop.
	Off Mode = iota
	// RW loads entries and persists new computations (the warm path).
	RW
	// RO loads entries but never writes (shared/read-only caches).
	RO
)

// String renders the flag form.
func (m Mode) String() string {
	switch m {
	case RW:
		return "rw"
	case RO:
		return "ro"
	default:
		return "off"
	}
}

// ParseMode parses the -memocache flag values off|rw|ro.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off":
		return Off, nil
	case "rw":
		return RW, nil
	case "ro":
		return RO, nil
	case "verify":
		// The audit belongs to the fast-forward engine, which re-simulates
		// and diffs every adopted memo whatever store it came from.
		return Off, fmt.Errorf("memostore: mode \"verify\" was folded into -fastforward verify; audit a store with -memocache ro -fastforward verify")
	}
	return Off, fmt.Errorf("memostore: mode %q (want off, rw, or ro)", s)
}

// Readable reports whether loads may return hits.
func (m Mode) Readable() bool { return m == RW || m == RO }

// Writable reports whether saves persist.
func (m Mode) Writable() bool { return m == RW }

// Entry layout (little-endian, fixed order):
//
//	magic        [8]byte  "ODRMEMO1"
//	schema       uint32   SchemaVersion
//	buildFP      [32]byte SHA-256 of the running executable
//	keyHash      [32]byte SHA-256 of the logical key
//	payloadLen   uint32
//	payload      [payloadLen]byte
//	payloadSum   [32]byte SHA-256 of payload
const (
	// SchemaVersion is the on-disk entry format version. Bump it on any
	// layout change; old entries become misses.
	SchemaVersion = 1

	magic      = "ODRMEMO1"
	headerLen  = len(magic) + 4 + 32 + 32 + 4
	trailerLen = 32

	// maxPayload bounds a single entry so a corrupt length field cannot
	// drive a huge allocation.
	maxPayload = 64 << 20
)

// CorruptError reports a malformed entry file. Callers treat it as a
// miss; it exists so diagnostics (and the fuzz target) can tell
// corruption apart from plain absence.
type CorruptError struct {
	Path   string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("memostore: corrupt entry %s: %s", e.Path, e.Reason)
}

// Stats counts store outcomes since Open, plus a point-in-time view of
// the store's footprint taken when Stats() is called.
type Stats struct {
	Hits         uint64 `json:"hits"`          // loads that returned a verified payload
	PackHits     uint64 `json:"pack_hits"`     // always 0 (the store is loose-only); kept because _perfbench/trace.go reads it
	Misses       uint64 `json:"misses"`        // absent entries (or key-hash collisions)
	Corrupt      uint64 `json:"corrupt"`       // malformed entries, degraded to misses
	VersionSkew  uint64 `json:"version_skew"`  // schema/build-fingerprint mismatches, degraded to misses
	Writes       uint64 `json:"writes"`        // entries persisted
	WriteErrors  uint64 `json:"write_errors"`  // failed persists (dropped; never fatal)
	TmpCollected uint64 `json:"tmp_collected"` // stale temp files of dead writers removed at Open (rw only)

	// Claim protocol counters (DESIGN.md §17):
	FlightShared   uint64 `json:"flight_shared"`   // always 0 (claims are the only compute dedup); kept because _perfbench/trace.go reads it
	ClaimsOwned    uint64 `json:"claims_owned"`    // cold-key claims this process won
	ClaimsLost     uint64 `json:"claims_lost"`     // claims found held by another live process
	ClaimWaitHits  uint64 `json:"claim_wait_hits"` // awaited claims resolved by the owner's entry landing
	ClaimTakeovers uint64 `json:"claim_takeovers"` // stale claims removed (presumed-dead owners)

	// Footprint snapshot, filled by Stats() at call time (not counters):
	DiskEntries uint64 `json:"disk_entries"` // .memo files on disk
	DiskBytes   uint64 `json:"disk_bytes"`   // total bytes of .memo files
}

// Store is a content-addressed entry cache rooted at one directory.
// All methods are safe for concurrent use.
type Store struct {
	dir     string
	mode    Mode
	buildFP [32]byte

	mu    sync.Mutex
	stats Stats

	// tmpSeq disambiguates temp files within the process; combined with
	// the PID it keeps concurrent writers from colliding.
	tmpSeq atomic.Uint64
}

// Open creates (if needed) and opens a store rooted at dir. A nil store
// with mode Off is represented by a nil *Store; all methods tolerate a
// nil receiver, behaving as Off.
func Open(dir string, mode Mode) (*Store, error) {
	if mode == Off {
		return nil, nil
	}
	if dir == "" {
		return nil, fmt.Errorf("memostore: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("memostore: %v", err)
	}
	fp, err := buildFingerprint()
	if err != nil {
		return nil, fmt.Errorf("memostore: build fingerprint: %v", err)
	}
	s := &Store{dir: dir, mode: mode, buildFP: fp}
	if mode.Writable() {
		s.stats.TmpCollected = s.collectStaleTmp()
	}
	return s, nil
}

// collectStaleTmp removes the temp files of writers that died between
// writeAtomic's create and rename, and returns how many it removed. A
// live writer holds its temp file for milliseconds, so one older than
// DefaultClaimStaleAfter is an orphan. Errors are ignored: the sweep is
// housekeeping, and a stray it misses stays harmless under its unique
// name.
func (s *Store) collectStaleTmp() uint64 {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	var n uint64
	for _, e := range entries {
		if e.IsDir() || !strings.Contains(e.Name(), ".memo.tmp.") {
			continue
		}
		info, err := e.Info()
		//odrips:allow walltime temp-file age is a liveness heuristic only, like claim staleness: it decides which orphans to delete, never what a load returns
		if err != nil || time.Since(info.ModTime()) <= DefaultClaimStaleAfter {
			continue
		}
		if os.Remove(filepath.Join(s.dir, e.Name())) == nil {
			n++
		}
	}
	return n
}

// Mode returns the store's mode (Off for a nil store).
func (s *Store) Mode() Mode {
	if s == nil {
		return Off
	}
	return s.mode
}

// Stats returns a snapshot of the store's counters plus its current
// on-disk footprint (.memo files only; claim files and anything else in
// the directory are ignored). The footprint walks the store directory,
// so Stats is a reporting call, not a hot-path one; a directory read
// error simply leaves the disk fields zero (stats must never be able to
// break a run).
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	if entries, err := os.ReadDir(s.dir); err == nil {
		for _, e := range entries {
			if e.IsDir() || filepath.Ext(e.Name()) != ".memo" {
				continue
			}
			st.DiskEntries++
			if info, err := e.Info(); err == nil {
				st.DiskBytes += uint64(info.Size())
			}
		}
	}
	return st
}

// looseName is the basename of the entry for (class, keyHash).
func looseName(class string, kh [32]byte) string {
	return fmt.Sprintf("%s-%x.memo", class, kh[:16])
}

// EntryPath returns the file an entry for (class, key) lives in. The
// name embeds half the key hash; the full hash inside the entry guards
// the truncation.
func (s *Store) EntryPath(class string, key []byte) string {
	kh := sha256.Sum256(key)
	return filepath.Join(s.dir, looseName(class, kh))
}

// Load fetches the payload stored for (class, key) from its entry file.
// ok reports a verified hit. A missing entry is (nil, false, nil); a
// malformed one is (nil, false, *CorruptError); a schema or build
// mismatch is a plain miss. Load never returns ok together with an
// error. The payload is a fresh slice owned by the caller.
func (s *Store) Load(class string, key []byte) (payload []byte, ok bool, err error) {
	if s == nil || !s.mode.Readable() {
		return nil, false, nil
	}
	kh := sha256.Sum256(key)
	path := filepath.Join(s.dir, looseName(class, kh))
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		s.count(func(st *Stats) { st.Misses++ })
		return nil, false, nil
	}
	payload, verdict := decodeEntry(data, s.buildFP, kh)
	switch verdict {
	case entryOK:
		s.count(func(st *Stats) { st.Hits++ })
		return payload, true, nil
	case entrySkew:
		s.count(func(st *Stats) { st.VersionSkew++ })
		return nil, false, nil
	case entryWrongKey:
		s.count(func(st *Stats) { st.Misses++ })
		return nil, false, nil
	default:
		s.count(func(st *Stats) { st.Corrupt++ })
		return nil, false, &CorruptError{Path: path, Reason: verdict.reason}
	}
}

// Save persists payload for (class, key). Failures are counted and
// dropped: persistence is an optimization, never a correctness
// dependency.
func (s *Store) Save(class string, key, payload []byte) {
	if s == nil || !s.mode.Writable() || len(payload) > maxPayload {
		return
	}
	kh := sha256.Sum256(key)
	buf := make([]byte, 0, headerLen+len(payload)+trailerLen)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, SchemaVersion)
	buf = append(buf, s.buildFP[:]...)
	buf = append(buf, kh[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(payload)
	buf = append(buf, sum[:]...)

	if err := s.writeAtomic(s.EntryPath(class, key), buf); err != nil {
		s.count(func(st *Stats) { st.WriteErrors++ })
		return
	}
	s.count(func(st *Stats) { st.Writes++ })
}

// writeAtomic writes data to a unique temp file in the store directory
// and renames it into place, so readers never observe a partial entry
// and concurrent writers race safely (last rename wins).
func (s *Store) writeAtomic(path string, data []byte) error {
	tmp := fmt.Sprintf("%s.tmp.%d.%d", path, os.Getpid(), s.tmpSeq.Add(1))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return err
	}
	_, werr := f.Write(data)
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		os.Remove(tmp) // best effort; the unique name keeps strays harmless
		return werr
	}
	return nil
}

func (s *Store) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// entryVerdict classifies a decode attempt.
type entryVerdict struct {
	kind   int // 0 ok, 1 skew, 2 wrong key, 3 corrupt
	reason string
}

var (
	entryOK       = entryVerdict{kind: 0}
	entrySkew     = entryVerdict{kind: 1}
	entryWrongKey = entryVerdict{kind: 2}
)

func corrupt(reason string) entryVerdict { return entryVerdict{kind: 3, reason: reason} }

// decodeEntry validates a raw entry against the expected build
// fingerprint and key hash. It is total: any input yields a verdict,
// never a panic, and a payload is returned only when every check passed.
func decodeEntry(data []byte, buildFP, keyHash [32]byte) ([]byte, entryVerdict) {
	if len(data) < headerLen+trailerLen {
		return nil, corrupt("short entry")
	}
	if string(data[:len(magic)]) != magic {
		return nil, corrupt("bad magic")
	}
	off := len(magic)
	schema := binary.LittleEndian.Uint32(data[off:])
	off += 4
	var gotBuild, gotKey [32]byte
	copy(gotBuild[:], data[off:])
	off += 32
	copy(gotKey[:], data[off:])
	off += 32
	plen := binary.LittleEndian.Uint32(data[off:])
	off += 4
	if plen > maxPayload || len(data) != off+int(plen)+trailerLen {
		return nil, corrupt("length mismatch")
	}
	payload := data[off : off+int(plen)]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], data[off+int(plen):]) {
		return nil, corrupt("payload checksum mismatch")
	}
	// Version checks come after structural ones so a well-formed entry
	// from another build is skew, not corruption.
	if schema != SchemaVersion || gotBuild != buildFP {
		return nil, entrySkew
	}
	if gotKey != keyHash {
		return nil, entryWrongKey // filename-truncation collision
	}
	return payload, entryOK
}

// ---- Process-scoped state ----

// proc is this package's only process-scoped mutable state, gathered
// behind one owning struct so every mutation funnels through the
// accessors below: the default store installed by the -memocache flag /
// ODRIPS_MEMOCACHE env composition roots, and the once-per-process
// executable hash that versions every entry. Everything else mutable
// lives inside Store instances.
//
//odrips:allow globalstate the process composition root: the default store is set once by flag/env wiring and the build fingerprint is an immutable process property memoized behind a Once
var proc struct {
	defaultStore atomic.Pointer[Store]
	buildFP      struct {
		sync.Once
		fp  [32]byte
		err error
	}
}

// buildFingerprint hashes the running executable once per process. Any
// change to the simulator — code, record layouts, toolchain — yields a
// different binary and therefore a disjoint cache namespace.
func buildFingerprint() ([32]byte, error) {
	o := &proc.buildFP
	o.Do(func() {
		exe, err := os.Executable()
		if err != nil {
			o.err = err
			return
		}
		f, err := os.Open(exe)
		if err != nil {
			o.err = err
			return
		}
		defer f.Close()
		h := sha256.New()
		if _, err := io.Copy(h, f); err != nil {
			o.err = err
			return
		}
		copy(o.fp[:], h.Sum(nil))
	})
	return o.fp, o.err
}

// ---- Process-wide default store ----

// SetDefault installs the process-wide store behind
// experiments.Default(), the runtime the odrips facade's zero-argument
// functions run on, which is rebuilt when the store changes. nil turns
// persistence off.
func SetDefault(s *Store) { proc.defaultStore.Store(s) }

// Default returns the process-wide store (nil when off).
func Default() *Store { return proc.defaultStore.Load() }

// init wires the default store from the environment so test binaries and
// benchmark runs can opt in without flag plumbing:
//
//	ODRIPS_MEMOCACHE=off|rw|ro          (default off)
//	ODRIPS_MEMOCACHE_DIR=<dir>          (default .odrips-memocache)
//
// A bad mode — including the retired "verify"; audit a store with
// ODRIPS_MEMOCACHE=ro under -fastforward verify instead — or an
// unopenable directory silently falls back to Off: the cache must never
// be able to break a run.
func init() {
	mode, err := ParseMode(os.Getenv("ODRIPS_MEMOCACHE"))
	if err != nil || mode == Off {
		return
	}
	dir := os.Getenv("ODRIPS_MEMOCACHE_DIR")
	if dir == "" {
		dir = ".odrips-memocache"
	}
	s, err := Open(dir, mode)
	if err != nil {
		return
	}
	SetDefault(s)
}
