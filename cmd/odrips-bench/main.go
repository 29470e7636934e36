// Command odrips-bench regenerates every table and figure of the paper's
// evaluation section and prints them as plain-text reports.
//
// Usage:
//
//	odrips-bench                 # everything, analytic break-evens only
//	odrips-bench -exp fig6a      # one experiment
//	odrips-bench -sweep fast     # add the empirical residency sweep
//	odrips-bench -sweep paper    # full 0.6 ms–1 s @0.1 ms grid (slow)
//	odrips-bench -workers 8      # cap the simulation worker pool
//
// Independent simulation points fan out across a worker pool sized by
// -workers (default: all cores). Results are deterministic: any worker
// count, including -workers 1, produces identical output.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"odrips"
	"odrips/internal/prof"
)

func main() {
	expFlag := flag.String("exp", "all",
		"comma-separated experiments: table1,fig1b,fig2,fig3b,calibration,fig6a,fig6b,fig6c,fig6d,ctxlatency,validation,ablations,coalescing,scaling,standby,anatomy,aging,tdp,wakelatency,faultsweep,fleet (faultsweep and fleet are opt-in: not part of \"all\"; \"none\" selects nothing, to inspect a store with -memostats)")
	sweepFlag := flag.String("sweep", "none", "break-even sweep: none, fast, or paper")
	memoStats := flag.Bool("memostats", false, "print memo-layer statistics (point caches, persistent store) after the selected experiments")
	workers := flag.Int("workers", 0, "simulation worker pool size (0 = all cores, 1 = sequential)")
	ffFlag := flag.String("fastforward", "on", "steady-state fast-forward: on, off, or verify (output is byte-identical across all three)")
	memoFlag := flag.String("memocache", "", "persistent memo store: off, rw, or ro (default: inherit ODRIPS_MEMOCACHE, normally off; output is byte-identical across all modes; audit a store with -memocache ro -fastforward verify)")
	memoDir := flag.String("memocachedir", "", "persistent memo store directory (default .odrips-memocache)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to `file`")
	memProfile := flag.String("memprofile", "", "write an allocation profile to `file`")
	flag.Parse()

	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "odrips-bench: -workers %d: must not be negative\n", *workers)
		os.Exit(2)
	}
	ffMode, err := odrips.ParseFFMode(*ffFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "odrips-bench: %v\n", err)
		os.Exit(2)
	}
	rt, err := odrips.OpenRuntime(*memoFlag, *memoDir, ffMode, *workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "odrips-bench: -memocache: %v\n", err)
		os.Exit(2)
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "odrips-bench: %v\n", err)
		os.Exit(2)
	}

	var sweep odrips.SweepOptions
	switch *sweepFlag {
	case "none":
	case "fast":
		sweep = odrips.DefaultSweep()
	case "paper":
		sweep = odrips.PaperSweepGrid()
	default:
		fmt.Fprintf(os.Stderr, "odrips-bench: unknown sweep mode %q\n", *sweepFlag)
		os.Exit(2)
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	// Opt-in experiments run only when named explicitly; "all" keeps its
	// historical (byte-identical) output.
	optIn := map[string]bool{"faultsweep": true, "fleet": true}
	selected := func(name string) bool { return (all && !optIn[name]) || want[name] }

	type experiment struct {
		name string
		run  func() error
	}
	experiments := []experiment{
		{"table1", func() error {
			odrips.Table1().Render(os.Stdout)
			return nil
		}},
		{"fig1b", func() error {
			r, err := rt.Fig1b()
			if err != nil {
				return err
			}
			r.Table().Render(os.Stdout)
			return nil
		}},
		{"fig2", func() error {
			r, err := rt.Fig2()
			if err != nil {
				return err
			}
			r.Table().Render(os.Stdout)
			return nil
		}},
		{"fig3b", func() error {
			r, err := rt.Fig3b()
			if err != nil {
				return err
			}
			r.Table().Render(os.Stdout)
			return nil
		}},
		{"calibration", func() error {
			r, err := rt.Calibration()
			if err != nil {
				return err
			}
			r.Table().Render(os.Stdout)
			return nil
		}},
		{"fig6a", func() error {
			r, err := rt.Fig6a(sweep)
			if err != nil {
				return err
			}
			r.Table().Render(os.Stdout)
			r.Chart().Render(os.Stdout)
			return nil
		}},
		{"fig6b", func() error {
			r, err := rt.Fig6b()
			if err != nil {
				return err
			}
			r.Table().Render(os.Stdout)
			return nil
		}},
		{"fig6c", func() error {
			r, err := rt.Fig6c()
			if err != nil {
				return err
			}
			r.Table().Render(os.Stdout)
			return nil
		}},
		{"fig6d", func() error {
			r, err := rt.Fig6d(sweep)
			if err != nil {
				return err
			}
			r.Table().Render(os.Stdout)
			return nil
		}},
		{"ctxlatency", func() error {
			r, err := rt.CtxLatency()
			if err != nil {
				return err
			}
			r.Table().Render(os.Stdout)
			return nil
		}},
		{"validation", func() error {
			r, err := rt.ModelValidation()
			if err != nil {
				return err
			}
			r.Table().Render(os.Stdout)
			return nil
		}},
		{"ablations", func() error {
			mc, err := rt.AblationMEECache()
			if err != nil {
				return err
			}
			mc.Table().Render(os.Stdout)
			ta, err := rt.AblationTimerAlternatives()
			if err != nil {
				return err
			}
			ta.Table().Render(os.Stdout)
			gg, err := rt.AblationIOGate()
			if err != nil {
				return err
			}
			gg.Table().Render(os.Stdout)
			rs, err := rt.AblationReinitSensitivity()
			if err != nil {
				return err
			}
			rs.Table().Render(os.Stdout)
			return nil
		}},
		{"coalescing", func() error {
			r, err := rt.WakeCoalescing()
			if err != nil {
				return err
			}
			r.Table().Render(os.Stdout)
			return nil
		}},
		{"scaling", func() error {
			r, err := rt.ProcessScaling()
			if err != nil {
				return err
			}
			r.Table().Render(os.Stdout)
			return nil
		}},
		{"standby", func() error {
			r, err := rt.Standby()
			if err != nil {
				return err
			}
			r.Table().Render(os.Stdout)
			return nil
		}},
		{"wakelatency", func() error {
			r, err := rt.WakeLatency()
			if err != nil {
				return err
			}
			r.Table().Render(os.Stdout)
			return nil
		}},
		{"tdp", func() error {
			r, err := rt.TDPSensitivity()
			if err != nil {
				return err
			}
			r.Table().Render(os.Stdout)
			return nil
		}},
		{"aging", func() error {
			r, err := odrips.CalibrationAging()
			if err != nil {
				return err
			}
			r.Table().Render(os.Stdout)
			return nil
		}},
		{"faultsweep", func() error {
			r, err := rt.FaultSweep()
			if err != nil {
				return err
			}
			r.Table().Render(os.Stdout)
			return nil
		}},
		{"fleet", func() error {
			// A representative heterogeneous fleet: two drift populations,
			// two battery capacities, jittered wake periods, one faulted
			// device — small enough for the bench tier, structured enough
			// to exercise every collapse layer.
			rep, err := odrips.Fleet(rt, odrips.FleetSpec{
				Name:    "bench",
				Devices: 1000,
				Horizon: odrips.Duration(3600) * odrips.Second,
				Shards:  8,
				Spread: odrips.FleetSpread{
					DriftPPB:    []int64{0, 40},
					BatteryMWh:  []float64{36000, 30000},
					JitterSteps: []odrips.Duration{0, 250 * odrips.Millisecond},
					Faults:      []odrips.FleetDeviceFaults{{Device: 5, Plan: "wake@1.3"}},
				},
			})
			if err != nil {
				return err
			}
			for _, t := range rep.Tables() {
				t.Render(os.Stdout)
			}
			return nil
		}},
		{"anatomy", func() error {
			for _, tc := range []struct {
				name string
				tech odrips.Technique
			}{{"Baseline", 0}, {"ODRIPS", odrips.ODRIPS}} {
				r, err := rt.TransitionAnatomy(tc.tech)
				if err != nil {
					return err
				}
				r.Table(tc.name).Render(os.Stdout)
			}
			return nil
		}},
	}

	known := map[string]bool{"all": true, "none": true}
	for _, e := range experiments {
		known[e.name] = true
	}
	// Sorted so the experiment reported on a multi-typo invocation is the
	// same every run (map iteration order is randomized).
	requested := make([]string, 0, len(want))
	for name := range want {
		requested = append(requested, name)
	}
	sort.Strings(requested)
	for _, name := range requested {
		if !known[name] {
			fmt.Fprintf(os.Stderr, "odrips-bench: unknown experiment %q\n", name)
			os.Exit(2)
		}
	}

	ran := 0
	for _, e := range experiments {
		if !selected(e.name) {
			continue
		}
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "odrips-bench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		ran++
	}
	if ran == 0 && !*memoStats {
		fmt.Fprintln(os.Stderr, "odrips-bench: nothing selected")
		os.Exit(2)
	}
	if *memoStats {
		rt.MemoStats().Render(os.Stdout)
	}
	if err := stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "odrips-bench: %v\n", err)
		os.Exit(1)
	}
}
