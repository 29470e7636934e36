//go:build !race

// Alloc-regression guard for the scheduler hot path (excluded under the
// race detector, whose instrumentation allocates). Locks in the PR 1
// allocation-free schedule/cancel/step churn.

package sim

import "testing"

func TestSchedulerChurnAllocFree(t *testing.T) {
	s := NewScheduler()
	nop := func() {}
	// Warm the event freelist past the churn working set.
	for i := 0; i < 256; i++ {
		victim := s.After(2*Nanosecond, "warm-cancel", nop)
		s.After(Nanosecond, "warm", nop)
		s.Cancel(victim)
		s.RunFor(Nanosecond)
	}
	if n := testing.AllocsPerRun(500, func() {
		victim := s.After(2*Nanosecond, "churn-cancel", nop)
		s.After(Nanosecond, "churn", nop)
		s.Cancel(victim)
		s.RunFor(Nanosecond)
	}); n != 0 {
		t.Fatalf("scheduler churn allocates %.1f/op, want 0", n)
	}
}
