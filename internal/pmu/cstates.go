// Package pmu implements the processor power-management-unit firmware
// logic: the C-state table, the idle-state selection policy driven by LTR
// and TNTE (§2.2), and the save/restore engines (SA FSM, LLC FSM, Boot FSM
// of Fig. 4) that move context between SRAM, DRAM, and the MEE.
package pmu

import (
	"fmt"
	"sort"

	"odrips/internal/ltr"
	"odrips/internal/sim"
)

// CState describes one idle power state of the processor.
type CState struct {
	Name  string
	Index int // the i in Ci; deeper states have larger i
	// EntryLatency and ExitLatency are the transition costs.
	EntryLatency sim.Duration
	ExitLatency  sim.Duration
	// MinResidency is the energy break-even residency: entering pays off
	// only if the platform stays at least this long.
	MinResidency sim.Duration
}

// SkylakeCStates returns a client-processor C-state table modeled after the
// paper's platform. C10 is DRIPS, the deepest runtime idle power state.
// Latencies reflect §3: Haswell-ULT's C10 exit was ~3 ms; Skylake reduced
// the voltage-regulator re-initialization to a few hundred microseconds.
func SkylakeCStates() []CState {
	return []CState{
		{Name: "C0", Index: 0},
		{Name: "C1", Index: 1, EntryLatency: sim.Microsecond, ExitLatency: 2 * sim.Microsecond, MinResidency: 4 * sim.Microsecond},
		{Name: "C3", Index: 3, EntryLatency: 20 * sim.Microsecond, ExitLatency: 40 * sim.Microsecond, MinResidency: 120 * sim.Microsecond},
		{Name: "C6", Index: 6, EntryLatency: 50 * sim.Microsecond, ExitLatency: 85 * sim.Microsecond, MinResidency: 400 * sim.Microsecond},
		{Name: "C7", Index: 7, EntryLatency: 70 * sim.Microsecond, ExitLatency: 110 * sim.Microsecond, MinResidency: 800 * sim.Microsecond},
		{Name: "C8", Index: 8, EntryLatency: 100 * sim.Microsecond, ExitLatency: 160 * sim.Microsecond, MinResidency: 2 * sim.Millisecond},
		{Name: "C10", Index: 10, EntryLatency: 200 * sim.Microsecond, ExitLatency: 300 * sim.Microsecond, MinResidency: 5 * sim.Millisecond},
	}
}

// HaswellCStates returns the previous-generation table: identical shallow
// states but a ~3 ms C10 exit (§3: Haswell-ULT's DRIPS exit, dominated by
// voltage-regulator re-initialization) with a correspondingly larger
// break-even residency.
func HaswellCStates() []CState {
	states := SkylakeCStates()
	for i := range states {
		if states[i].Name == "C10" {
			states[i].EntryLatency = 400 * sim.Microsecond
			states[i].ExitLatency = 3 * sim.Millisecond
			states[i].MinResidency = 40 * sim.Millisecond
		}
	}
	return states
}

// SelectState implements the PMU's target-state decision (§2.2): pick the
// deepest state whose exit latency every device can tolerate (LTR) and
// whose break-even residency fits before the next timer event (TNTE).
// When no constraint is reported, the deepest state wins.
func SelectState(states []CState, table *ltr.Table) (CState, error) {
	if len(states) == 0 {
		return CState{}, fmt.Errorf("pmu: empty C-state table")
	}
	sorted := append([]CState(nil), states...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Index > sorted[j].Index })

	tol, haveTol := table.MinTolerance()
	tnte, haveTNTE := table.TNTE()
	for _, st := range sorted {
		if haveTol && st.ExitLatency > tol {
			continue
		}
		if haveTNTE && sim.Duration(float64(st.MinResidency)) > tnte {
			continue
		}
		return st, nil
	}
	// Even C0 should always qualify (zero latencies); defensive fallback.
	return sorted[len(sorted)-1], nil
}
