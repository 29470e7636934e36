//go:build !race

// Alloc-regression guard for template-backed platform construction. It
// is excluded under the race detector, whose instrumentation inserts its
// own allocations; the plain `go test` tier runs it.

package experiments

import (
	"runtime"
	"testing"

	"odrips/internal/platform"
)

// TestNewPlatformAllocs pins Runtime.NewPlatform on a warm template: an
// ODRIPS platform allocates ~140 times and ~44 KiB. Its memory module
// reads the protected region's metadata from the template's formatted tree
// and its retention SRAMs and restore buffers are allocated on first use,
// where copying the tree and allocating them eagerly cost ~900 KiB per
// platform, and a bare platform.New also regenerates and serializes the
// context (~230 allocations).
func TestNewPlatformAllocs(t *testing.T) {
	rt := NewRuntime(nil, platform.FFOn, 1)
	cfg := platform.ODRIPSConfig()
	if _, err := rt.NewPlatform(cfg); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(10, func() {
		if _, err := rt.NewPlatform(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if got > 160 {
		t.Errorf("template-backed NewPlatform allocates %.0f times, want at most 160", got)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := rt.NewPlatform(cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > 64<<10 {
		t.Errorf("template-backed NewPlatform allocates %d bytes, want at most 64 KiB", perOp)
	}
	if st := rt.TemplateStats(); st.Puts != 1 {
		t.Errorf("runtime built %d templates for one seed, want 1", st.Puts)
	}
}
