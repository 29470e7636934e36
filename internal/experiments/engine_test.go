package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"odrips/internal/platform"
	"odrips/internal/sim"
)

// The engine's core guarantee: results are identical at any worker count.
func TestRunPointsDeterministicAcrossWorkerCounts(t *testing.T) {
	specs := func() []PointSpec[string] {
		out := make([]PointSpec[string], 64)
		for i := range out {
			i := i
			out[i] = PointSpec[string]{
				Label: fmt.Sprintf("p%d", i),
				Run:   func() (string, error) { return fmt.Sprintf("value-%d", i*i), nil },
			}
		}
		return out
	}
	seq, err := RunPoints(specs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := RunPoints(specs(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d diverged from sequential:\nseq: %v\npar: %v", workers, seq, par)
		}
	}
}

// The same guarantee end-to-end on the real sweep: the empirical
// break-even must be byte-identical sequential vs parallel, each on a
// fresh runtime so both runs actually simulate.
func TestSweepBreakEvenDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("platform sweep in -short mode")
	}
	o := SweepOptions{
		Enabled:        true,
		Lo:             600 * sim.Microsecond,
		Hi:             10 * sim.Millisecond,
		Step:           sim.Millisecond,
		CyclesPerPoint: 1,
	}
	base := platform.DefaultConfig()
	opt := platform.ODRIPSConfig()

	o.Workers = 1
	beSeq, okSeq, err := NewRuntime(nil, platform.FFOn, 0).SweepBreakEven(base, opt, o)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(nil, platform.FFOn, 0)
	o.Workers = 8
	bePar, okPar, err := rt.SweepBreakEven(base, opt, o)
	if err != nil {
		t.Fatal(err)
	}
	if beSeq != bePar || okSeq != okPar {
		t.Fatalf("sweep diverged: workers=1 -> (%v, %v), workers=8 -> (%v, %v)",
			beSeq, okSeq, bePar, okPar)
	}

	// And a cached re-run is bit-identical to the cold runs.
	beHot, okHot, err := rt.SweepBreakEven(base, opt, o)
	if err != nil {
		t.Fatal(err)
	}
	if beHot != beSeq || okHot != okSeq {
		t.Fatalf("memo cache changed the answer: cold (%v, %v), hot (%v, %v)",
			beSeq, okSeq, beHot, okHot)
	}
}

// One failing point cancels the pool — workers stop claiming points — and
// the error surfaces with the point's index and label.
func TestRunPointsErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	specs := make([]PointSpec[int], 1000)
	for i := range specs {
		i := i
		specs[i] = PointSpec[int]{
			Label: fmt.Sprintf("p%d", i),
			Run: func() (int, error) {
				ran.Add(1)
				if i == 3 {
					return 0, boom
				}
				return i, nil
			},
		}
	}
	results, err := RunPoints(specs, 4)
	if err == nil {
		t.Fatal("failing point did not surface an error")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("error lost its cause: %v", err)
	}
	if !strings.Contains(err.Error(), "point 3") || !strings.Contains(err.Error(), "p3") {
		t.Fatalf("error does not identify the failing point: %v", err)
	}
	if results[3].Err == nil {
		t.Fatal("failing point's result slot does not record the error")
	}
	// Cancellation: with 1000 points and the failure at index 3, the pool
	// must stop long before draining everything.
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("pool did not cancel: ran all %d points", n)
	}
}

// A one-worker pool evaluates points in index order and stops at the
// first error, so nothing after the failing point runs.
func TestRunPointsErrorSequential(t *testing.T) {
	boom := errors.New("boom")
	ran := 0
	specs := []PointSpec[int]{
		{Run: func() (int, error) { ran++; return 1, nil }},
		{Run: func() (int, error) { ran++; return 0, boom }},
		{Run: func() (int, error) { ran++; return 3, nil }},
	}
	_, err := RunPoints(specs, 1)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if ran != 2 {
		t.Fatalf("sequential path ran %d points after the failure, want stop at 2", ran)
	}
}

func TestRunPointsEmpty(t *testing.T) {
	results, err := RunPoints[int](nil, 4)
	if err != nil || len(results) != 0 {
		t.Fatalf("empty input: results=%v err=%v", results, err)
	}
}

// The satellite fix: a zero-value grid (Enabled set, Step unset) must be a
// descriptive error, not a hang or a silent no-op.
func TestSweepOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		o    SweepOptions
		want string
	}{
		{"zero step", SweepOptions{Enabled: true, Lo: sim.Millisecond, Hi: sim.Second}, "step"},
		{"negative step", SweepOptions{Enabled: true, Lo: sim.Millisecond, Hi: sim.Second, Step: -1}, "step"},
		{"zero lo", SweepOptions{Enabled: true, Hi: sim.Second, Step: sim.Millisecond}, "lower bound"},
		{"inverted", SweepOptions{Enabled: true, Lo: sim.Second, Hi: sim.Millisecond, Step: sim.Millisecond}, "inverted"},
		{"negative cycles", SweepOptions{Enabled: true, Lo: 1, Hi: 2, Step: 1, CyclesPerPoint: -1}, "cycles"},
		{"negative workers", SweepOptions{Enabled: true, Lo: 1, Hi: 2, Step: 1, Workers: -1}, "worker"},
	}
	for _, c := range cases {
		err := c.o.Validate()
		if err == nil {
			t.Errorf("%s: Validate() = nil, want error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	if err := (SweepOptions{}).Validate(); err != nil {
		t.Errorf("disabled zero-value options must validate clean, got %v", err)
	}
	if err := DefaultSweep().Validate(); err != nil {
		t.Errorf("DefaultSweep invalid: %v", err)
	}
	if err := PaperGrid().Validate(); err != nil {
		t.Errorf("PaperGrid invalid: %v", err)
	}
}

// SweepBreakEven and the Fig. 6 entry points must reject a broken grid.
func TestSweepBreakEvenRejectsZeroStep(t *testing.T) {
	bad := SweepOptions{Enabled: true, Lo: sim.Millisecond, Hi: sim.Second}
	rt := Default()
	if _, _, err := rt.SweepBreakEven(platform.DefaultConfig(), platform.ODRIPSConfig(), bad); err == nil {
		t.Fatal("SweepBreakEven accepted a zero step")
	}
	if _, err := rt.Fig6a(bad); err == nil {
		t.Fatal("Fig6a accepted a zero step")
	}
	if _, err := rt.Fig6d(bad); err == nil {
		t.Fatal("Fig6d accepted a zero step")
	}
}

// A runtime's worker default sizes every pool a call does not size
// itself; zero means GOMAXPROCS.
func TestNewRuntimeWorkers(t *testing.T) {
	rt := NewRuntime(nil, platform.FFOn, 3)
	if got := rt.Pool(0); got != 3 {
		t.Fatalf("Pool(0) = %d on a 3-worker runtime", got)
	}
	if got := rt.Pool(5); got != 5 {
		t.Fatalf("explicit worker count overridden: got %d, want 5", got)
	}
	if got, want := NewRuntime(nil, platform.FFOn, 0).Pool(0), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("zero-worker runtime has %d workers, want GOMAXPROCS %d", got, want)
	}
}
