// Byte-identity of the full experiment set across every -memocache mode:
// the persistent memo store must be invisible in the output, whether the
// run populates it (rw cold), replays from it (rw warm, ro), audits it
// (ro under -fastforward=verify), or finds it deleted. Lives in the external test package for
// the same binary-layout reason as ffidentity_test.go.
package experiments_test

import (
	"bytes"
	"os"
	"testing"

	"odrips"
)

// renderWithMemoCache regenerates the full -exp all output with the
// persistent store in the given mode and the given fast-forward mode,
// starting from cold in-process caches (a fresh store gets a fresh
// default memo plane; bundles and sweep points reload from disk, not
// RAM).
func renderWithMemoCache(t *testing.T, mode, dir string, ff odrips.FFMode) []byte {
	t.Helper()
	if err := odrips.SetupMemoCache(mode, dir); err != nil {
		t.Fatalf("-memocache=%s: %v", mode, err)
	}
	return renderAllExperiments(t, ff)
}

// TestExpAllByteIdenticalAcrossMemoCache is the tentpole acceptance
// criterion: `-exp all` renders byte-identically with the memo store
// off, populating (rw cold), warm from disk (rw), read-only, read-only
// under -fastforward=verify (every loaded memo re-simulated and diffed),
// and after the cache directory is deleted out from under a configured
// store.
func TestExpAllByteIdenticalAcrossMemoCache(t *testing.T) {
	if testing.Short() {
		t.Skip("six full experiment renders in -short mode")
	}
	t.Cleanup(func() {
		if err := odrips.SetupMemoCache("off", ""); err != nil {
			t.Error(err)
		}
		odrips.SetDefaultFastForward(odrips.FFOn)
		odrips.ResetPointCache()
	})
	dir := t.TempDir()

	base := renderAllExperiments(t, odrips.FFOn) // no store

	compare := func(name string, got []byte) {
		t.Helper()
		if !bytes.Equal(base, got) {
			line := 1
			for i := range base {
				if i >= len(got) || base[i] != got[i] {
					break
				}
				if base[i] == '\n' {
					line++
				}
			}
			t.Fatalf("-exp all output diverged at -memocache=%s (first difference near line %d; %d vs %d bytes)",
				name, line, len(base), len(got))
		}
	}

	compare("rw (cold)", renderWithMemoCache(t, "rw", dir, odrips.FFOn))
	if st := odrips.MemoCacheStats(); st.Writes == 0 {
		t.Fatalf("rw cold run persisted nothing: %+v", st)
	}

	compare("rw (warm)", renderWithMemoCache(t, "rw", dir, odrips.FFOn))
	if st := odrips.MemoCacheStats(); st.Hits == 0 {
		t.Fatalf("rw warm run loaded nothing: %+v", st)
	}

	compare("ro", renderWithMemoCache(t, "ro", dir, odrips.FFOn))
	if st := odrips.MemoCacheStats(); st.Writes != 0 {
		t.Fatalf("ro run wrote: %+v", st)
	}

	compare("ro + fastforward verify", renderWithMemoCache(t, "ro", dir, odrips.FFVerify))
	if st := odrips.MemoCacheStats(); st.Hits == 0 || st.Writes != 0 {
		t.Fatalf("ro verify run: %+v (want hits to audit, no writes)", st)
	}

	// Delete the cache out from under a configured rw store: every load
	// misses, everything recomputes, output is still identical.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	compare("rw (deleted cache)", renderWithMemoCache(t, "rw", dir, odrips.FFOn))
}
