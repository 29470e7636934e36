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

// renderWithMemoCache regenerates the full -exp all output on a fresh
// runtime with the persistent store in the given mode and the given
// fast-forward mode, starting from cold in-process caches (a fresh
// runtime has a fresh memo plane; bundles and sweep points reload from
// disk, not RAM). It returns the runtime for its store counters.
func renderWithMemoCache(t *testing.T, mode, dir string, ff odrips.FFMode) ([]byte, *odrips.Runtime) {
	t.Helper()
	rt, err := odrips.OpenRuntime(mode, dir, ff, 0)
	if err != nil {
		t.Fatalf("-memocache=%s: %v", mode, err)
	}
	return renderAllExperiments(t, rt), rt
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
	dir := t.TempDir()

	base, _ := renderWithMemoCache(t, "off", "", odrips.FFOn) // no store

	compare := func(name string, got []byte) {
		t.Helper()
		if !bytes.Equal(base, got) {
			t.Fatalf("-exp all output diverged at -memocache=%s (first difference near line %d; %d vs %d bytes)",
				name, firstDiffLine(base, got), len(base), len(got))
		}
	}

	got, rt := renderWithMemoCache(t, "rw", dir, odrips.FFOn)
	compare("rw (cold)", got)
	if st := rt.Store().Stats(); st.Writes == 0 {
		t.Fatalf("rw cold run persisted nothing: %+v", st)
	}

	got, rt = renderWithMemoCache(t, "rw", dir, odrips.FFOn)
	compare("rw (warm)", got)
	if st := rt.Store().Stats(); st.Hits == 0 {
		t.Fatalf("rw warm run loaded nothing: %+v", st)
	}

	got, rt = renderWithMemoCache(t, "ro", dir, odrips.FFOn)
	compare("ro", got)
	if st := rt.Store().Stats(); st.Writes != 0 {
		t.Fatalf("ro run wrote: %+v", st)
	}

	got, rt = renderWithMemoCache(t, "ro", dir, odrips.FFVerify)
	compare("ro + fastforward verify", got)
	if st := rt.Store().Stats(); st.Hits == 0 || st.Writes != 0 {
		t.Fatalf("ro verify run: %+v (want hits to audit, no writes)", st)
	}

	// Delete the cache out from under a configured rw store: every load
	// misses, everything recomputes, output is still identical.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	got, _ = renderWithMemoCache(t, "rw", dir, odrips.FFOn)
	compare("rw (deleted cache)", got)
}
