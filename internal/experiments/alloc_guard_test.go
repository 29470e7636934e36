//go:build !race

// Alloc-regression guard for template-backed platform construction. It
// is excluded under the race detector, whose instrumentation inserts its
// own allocations; the plain `go test` tier runs it.

package experiments

import (
	"testing"

	"odrips/internal/platform"
)

// TestNewPlatformAllocs pins Runtime.NewPlatform on a warm template: an
// ODRIPS platform allocates ~180 times, its protected region's metadata
// in one slab per tree level, where a bare platform.New also regenerates
// and serializes the context (~230) and a per-block metadata copy would
// cost ~1,400.
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
	if got > 200 {
		t.Errorf("template-backed NewPlatform allocates %.0f times, want at most 200", got)
	}
	if st := rt.TemplateStats(); st.Puts != 1 {
		t.Errorf("runtime built %d templates for one seed, want 1", st.Puts)
	}
}
