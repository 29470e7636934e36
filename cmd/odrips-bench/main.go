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
	exps := odrips.Experiments()
	var names, optIn []string
	for _, e := range exps {
		names = append(names, e.Name)
		if e.OptIn {
			optIn = append(optIn, e.Name)
		}
	}
	expFlag := flag.String("exp", "all", fmt.Sprintf(
		"comma-separated experiments: %s (%s are opt-in: not part of \"all\"; \"none\" selects nothing, to inspect a store with -memostats)",
		strings.Join(names, ","), strings.Join(optIn, " and ")))
	sweepFlag := flag.String("sweep", "none", "break-even sweep: none, fast, or paper")
	memoStats := flag.Bool("memostats", false, "print memo-layer statistics (point caches, persistent store) after the selected experiments")
	workers := flag.Int("workers", 0, "simulation worker pool size (0 = all cores, 1 = sequential)")
	ffFlag := flag.String("fastforward", "on", "steady-state fast-forward: on, off, or verify (output is byte-identical across all three)")
	memoFlag := flag.String("memocache", "", "persistent memo store: off, rw, or ro (default: inherit ODRIPS_MEMOCACHE, normally off; output is byte-identical across all modes; audit a store with -memocache ro -fastforward verify)")
	memoDir := flag.String("memocachedir", "", "persistent memo store directory (default .odrips-memocache)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to `file`")
	memProfile := flag.String("memprofile", "", "write an allocation profile to `file`")
	flag.Parse()

	// fail reports an error and exits: 2 for flag misuse, 1 for a failed
	// run.
	fail := func(code int, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "odrips-bench: "+format+"\n", args...)
		os.Exit(code)
	}

	if *workers < 0 {
		fail(2, "-workers %d: must not be negative", *workers)
	}
	ffMode, err := odrips.ParseFFMode(*ffFlag)
	if err != nil {
		fail(2, "%v", err)
	}
	rt, err := odrips.OpenRuntime(*memoFlag, *memoDir, ffMode, *workers)
	if err != nil {
		fail(2, "-memocache: %v", err)
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fail(2, "%v", err)
	}

	var sweep odrips.SweepOptions
	switch *sweepFlag {
	case "none":
	case "fast":
		sweep = odrips.DefaultSweep()
	case "paper":
		sweep = odrips.PaperSweepGrid()
	default:
		fail(2, "unknown sweep mode %q", *sweepFlag)
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(e)] = true
	}
	known := map[string]bool{"all": true, "none": true}
	for _, e := range exps {
		known[e.Name] = true
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
			fail(2, "unknown experiment %q", name)
		}
	}

	ran := 0
	for _, e := range exps {
		// Opt-in experiments run only when named explicitly; "all" keeps
		// its historical (byte-identical) output.
		if !(want[e.Name] || want["all"] && !e.OptIn) {
			continue
		}
		if err := e.Render(rt, sweep, os.Stdout); err != nil {
			fail(1, "%s: %v", e.Name, err)
		}
		ran++
	}
	if ran == 0 && !*memoStats {
		fail(2, "nothing selected")
	}
	rt.Flush() // the memo plane writes what the experiments discovered
	if *memoStats {
		rt.MemoStats().Render(os.Stdout)
	}
	if err := stopProf(); err != nil {
		fail(1, "%v", err)
	}
}
