//go:build !race

// The flow-trace ring test counts allocations, which the race
// detector's instrumentation perturbs; the plain `go test` tier runs it.

package platform

import (
	"testing"

	"odrips/internal/sim"
)

// TestFlowTraceRing: after three ring-fulls of steps, FlowTrace returns
// the last flowTraceCap of them, oldest first, and recording into the
// full ring allocates nothing.
func TestFlowTraceRing(t *testing.T) {
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range 3 * flowTraceCap {
		p.recordStep(FlowStep{Flow: "entry", At: sim.Time(i)})
	}
	got := p.FlowTrace()
	if len(got) != flowTraceCap {
		t.Fatalf("%d steps in the trace, want %d", len(got), flowTraceCap)
	}
	for i, fs := range got {
		if want := sim.Time(2*flowTraceCap + i); fs.At != want {
			t.Fatalf("step %d at %v, want %v", i, fs.At, want)
		}
	}
	// Four ring-fulls of steps per run: a trace that slides its window
	// forward reallocates every ring-full or so.
	fs := FlowStep{Flow: "exit"}
	allocs := testing.AllocsPerRun(10, func() {
		for range 4 * flowTraceCap {
			p.recordStep(fs)
		}
	})
	if allocs != 0 {
		t.Errorf("four ring-fulls of steps into a full ring: %v allocs, want 0", allocs)
	}
}
