//go:build !race

// Alloc-regression guard for the lazy array contract. It is excluded
// under the race detector, whose instrumentation inserts its own
// allocations; the plain `go test` tier runs it.

package sram

import "testing"

// TestUnwrittenArrayAllocatesNothing: an array nothing writes never
// allocates its bytes, however often it cycles through its power states.
func TestUnwrittenArrayAllocatesNothing(t *testing.T) {
	a := New("ctx", ProcessorProcess, 200<<10)
	if n := testing.AllocsPerRun(100, func() {
		a.SetState(Active)
		a.SetState(Retention)
		a.SetState(Off)
	}); n != 0 {
		t.Fatalf("never-written array allocates %.1f times per power cycle, want 0", n)
	}
	if a.data != nil {
		t.Fatal("never-written array holds bytes")
	}
}
