package odrips

import (
	"io"

	"odrips/internal/experiments"
)

// Experiment is one entry of the paper's evaluation as `odrips-bench -exp`
// names it: a table, figure or study rendered as plain text.
type Experiment struct {
	// Name is the -exp selector.
	Name string
	// OptIn experiments run only when named: "all" leaves them out.
	OptIn bool
	// Render regenerates the experiment on rt and writes its tables to w.
	// Only the break-even figures read sweep.
	Render func(rt *Runtime, sweep SweepOptions, w io.Writer) error
}

// Experiments returns the registry in `-exp all` order, opt-in entries
// included. It is the only experiment list: odrips-bench selects from it
// and the byte-identity tests render it.
func Experiments() []Experiment {
	return []Experiment{
		{Name: "table1", Render: func(_ *Runtime, _ SweepOptions, w io.Writer) error {
			Table1().Render(w)
			return nil
		}},
		{Name: "fig1b", Render: table((*Runtime).Fig1b)},
		{Name: "fig2", Render: table((*Runtime).Fig2)},
		{Name: "fig3b", Render: table((*Runtime).Fig3b)},
		{Name: "calibration", Render: table((*Runtime).Calibration)},
		{Name: "fig6a", Render: func(rt *Runtime, sweep SweepOptions, w io.Writer) error {
			r, err := rt.Fig6a(sweep)
			if err != nil {
				return err
			}
			r.Table().Render(w)
			r.Chart().Render(w)
			return nil
		}},
		{Name: "fig6b", Render: table((*Runtime).Fig6b)},
		{Name: "fig6c", Render: table((*Runtime).Fig6c)},
		{Name: "fig6d", Render: func(rt *Runtime, sweep SweepOptions, w io.Writer) error {
			r, err := rt.Fig6d(sweep)
			if err != nil {
				return err
			}
			r.Table().Render(w)
			return nil
		}},
		{Name: "ctxlatency", Render: table((*Runtime).CtxLatency)},
		{Name: "validation", Render: table((*Runtime).ModelValidation)},
		{Name: "ablations", Render: inOrder(
			table((*Runtime).AblationMEECache),
			table((*Runtime).AblationTimerAlternatives),
			table((*Runtime).AblationIOGate),
			table((*Runtime).AblationReinitSensitivity))},
		{Name: "coalescing", Render: table((*Runtime).WakeCoalescing)},
		{Name: "scaling", Render: table((*Runtime).ProcessScaling)},
		{Name: "standby", Render: table((*Runtime).Standby)},
		{Name: "wakelatency", Render: table((*Runtime).WakeLatency)},
		{Name: "tdp", Render: table((*Runtime).TDPSensitivity)},
		{Name: "aging", Render: table(func(*Runtime) (*experiments.AgingResult, error) {
			return experiments.CalibrationAging()
		})},
		{Name: "faultsweep", OptIn: true, Render: table((*Runtime).FaultSweep)},
		{Name: "fleet", OptIn: true, Render: renderFleet},
		{Name: "anatomy", Render: func(rt *Runtime, _ SweepOptions, w io.Writer) error {
			for _, tc := range []struct {
				name string
				tech Technique
			}{{"Baseline", 0}, {"ODRIPS", ODRIPS}} {
				r, err := rt.TransitionAnatomy(tc.tech)
				if err != nil {
					return err
				}
				r.Table(tc.name).Render(w)
			}
			return nil
		}},
	}
}

// renderer is an Experiment's Render.
type renderer = func(rt *Runtime, sweep SweepOptions, w io.Writer) error

// table renders an experiment whose result prints as one table.
func table[R interface{ Table() *Table }](run func(*Runtime) (R, error)) renderer {
	return func(rt *Runtime, _ SweepOptions, w io.Writer) error {
		r, err := run(rt)
		if err != nil {
			return err
		}
		r.Table().Render(w)
		return nil
	}
}

// inOrder renders each part in turn, stopping at the first error.
func inOrder(parts ...renderer) renderer {
	return func(rt *Runtime, sweep SweepOptions, w io.Writer) error {
		for _, render := range parts {
			if err := render(rt, sweep, w); err != nil {
				return err
			}
		}
		return nil
	}
}

// renderFleet runs a representative heterogeneous fleet: two drift
// populations, two battery capacities, jittered wake periods, one faulted
// device — small enough for the bench tier, structured enough to exercise
// every collapse layer.
func renderFleet(rt *Runtime, _ SweepOptions, w io.Writer) error {
	rep, err := Fleet(rt, FleetSpec{
		Name:    "bench",
		Devices: 1000,
		Horizon: Duration(3600) * Second,
		Shards:  8,
		Spread: FleetSpread{
			DriftPPB:    []int64{0, 40},
			BatteryMWh:  []float64{36000, 30000},
			JitterSteps: []Duration{0, 250 * Millisecond},
			Faults:      []FleetDeviceFaults{{Device: 5, Plan: "wake@1.3"}},
		},
	})
	if err != nil {
		return err
	}
	for _, t := range rep.Tables() {
		t.Render(w)
	}
	return nil
}
