package experiments

import (
	"fmt"

	"odrips/internal/platform"
	"odrips/internal/report"
	"odrips/internal/sim"
	"odrips/internal/workload"
)

// TraceEvent is one milestone of the timer hand-over waveform.
type TraceEvent struct {
	At    sim.Time
	Event string
	Value uint64
}

// Fig3bResult reproduces Fig. 3(b): the fast→slow hand-over during ODRIPS
// entry and the slow→fast hand-over during exit, with every milestone
// aligned to a 32.768 kHz rising edge.
type Fig3bResult struct {
	Events []TraceEvent
}

// Fig3b runs a single short ODRIPS cycle with the switch-unit trace armed.
func (rt *Runtime) Fig3b() (*Fig3bResult, error) {
	cfg := platform.ODRIPSConfig()
	cfg.ForceDeepest = true
	p, err := rt.NewPlatform(cfg)
	if err != nil {
		return nil, err
	}
	out := &Fig3bResult{}
	p.Hub().Unit().Trace = func(event string, at sim.Time, value uint64) {
		out.Events = append(out.Events, TraceEvent{At: at, Event: event, Value: value})
	}
	if _, err := p.RunCycles(workload.Fixed(1, 2*sim.Millisecond, 50*sim.Millisecond)); err != nil {
		return nil, err
	}
	return out, nil
}

// Table renders the waveform milestones.
func (r *Fig3bResult) Table() *report.Table {
	t := report.NewTable(
		"Fig. 3(b) — Timer hand-over waveform (one ODRIPS entry + exit)",
		"Time", "Milestone", "Timer value")
	for _, e := range r.Events {
		t.AddRow(e.At.String(), e.Event, fmt.Sprintf("%d", e.Value))
	}
	t.AddNote("assert-switch→slow-loaded and deassert-switch→fast-reloaded land on 32.768 kHz edges")
	return t
}
