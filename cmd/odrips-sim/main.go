// Command odrips-sim runs one platform configuration through a
// connected-standby workload and prints the measured summary.
//
// Usage:
//
//	odrips-sim -config odrips -cycles 10
//	odrips-sim -config baseline -idle 30s -corefreq 1000
//	odrips-sim -config odrips-pcm -cycles 5 -seed 7
//	odrips-sim -config odrips -breakeven -workers 8
//	odrips-sim -config odrips -faults "wake@1.3;meefail@2:1" -flows
//
// -breakeven runs the empirical residency sweep of the selected
// configuration against the baseline, fanning sweep points across a
// -workers-sized pool (default: all cores) with deterministic results.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"odrips"
	"odrips/internal/platform"
	"odrips/internal/power"
	"odrips/internal/prof"
	"odrips/internal/workload"
)

func main() {
	name := flag.String("config", "odrips", "platform configuration")
	cycles := flag.Int("cycles", 5, "connected-standby cycles to run")
	idle := flag.Duration("idle", 30*time.Second, "idle window per cycle (0 = realistic jittered workload)")
	coreFreq := flag.Int("corefreq", 800, "maintenance core frequency in MHz (800/1000/1500)")
	dramRate := flag.Int("dramrate", 1600, "DRAM transfer rate in MT/s (1600/1067/800)")
	seed := flag.Int64("seed", 1, "context/workload seed")
	generation := flag.String("generation", "skylake", "skylake or haswell (baseline DRIPS only)")
	s3 := flag.Bool("s3", false, "run one ACPI S3 suspend/resume cycle instead of connected standby")
	flows := flag.Bool("flows", false, "print the recorded entry/exit flow steps")
	faultsFlag := flag.String("faults", "", "fault plan `kind@cycle[.step][:arg];...` (kinds: wake, wakex, meefail, bitflip, drift, fetglitch)")
	traceFile := flag.String("workload", "", "CSV trace of cycles (active_ms,idle_ms,wake); overrides -cycles/-idle")
	breakeven := flag.Bool("breakeven", false, "sweep the empirical break-even residency vs the baseline configuration")
	workers := flag.Int("workers", 0, "simulation worker pool size for -breakeven (0 = all cores, 1 = sequential)")
	ffFlag := flag.String("fastforward", "on", "steady-state fast-forward: on, off, or verify (output is byte-identical across all three)")
	memoFlag := flag.String("memocache", "", "persistent memo store: off, rw, or ro (default: inherit ODRIPS_MEMOCACHE, normally off; output is byte-identical across all modes; audit a store with -memocache ro -fastforward verify)")
	memoDir := flag.String("memocachedir", "", "persistent memo store directory (default .odrips-memocache)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to `file`")
	memProfile := flag.String("memprofile", "", "write an allocation profile to `file`")
	flag.Parse()

	// fail reports an error and exits: 2 for flag misuse, 1 for a failed
	// run.
	fail := func(code int, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "odrips-sim: "+format+"\n", args...)
		os.Exit(code)
	}

	if *workers < 0 {
		fail(2, "-workers %d: must not be negative", *workers)
	}
	if *cycles < 1 {
		fail(2, "-cycles %d: must be at least 1", *cycles)
	}
	if *idle < 0 {
		fail(2, "-idle %v: must not be negative", *idle)
	}
	cfg, err := platform.Preset(*name)
	if err != nil {
		fail(2, "-config: %v", err)
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
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "odrips-sim: %v\n", err)
		}
	}()
	defer rt.Flush() // every success returns; a failure's os.Exit skips it
	cfg.CoreFreqMHz = *coreFreq
	cfg.DRAMMTps = *dramRate
	cfg.Seed = *seed
	switch *generation {
	case "skylake":
	case "haswell":
		cfg.Generation = platform.GenHaswell
	default:
		fail(2, "unknown generation %q", *generation)
	}

	if *breakeven {
		sweep := odrips.DefaultSweep()
		be, ok, err := rt.SweepBreakEven(odrips.DefaultConfig(), cfg, sweep)
		if err != nil {
			fail(1, "break-even sweep: %v", err)
		}
		fmt.Printf("configuration:        %s\n", cfg.Name())
		if !ok {
			fmt.Printf("break-even residency: none in [%v, %v]\n", sweep.Lo, sweep.Hi)
			return
		}
		fmt.Printf("break-even residency: %.2f ms (grid %v..%v step %v)\n",
			be.Milliseconds(), sweep.Lo, sweep.Hi, sweep.Step)
		return
	}

	p, err := rt.NewPlatform(cfg)
	if err != nil {
		fail(1, "%v", err)
	}
	if *faultsFlag != "" {
		plan, err := odrips.ParseFaultPlan(*faultsFlag)
		if err != nil {
			fail(2, "-faults: %v", err)
		}
		if err := p.InjectFaults(plan); err != nil {
			fail(2, "-faults: %v", err)
		}
	}
	if *s3 {
		res, err := p.RunS3Cycle(odrips.Duration(idle.Nanoseconds()) * 1000)
		if err != nil {
			fail(1, "%v", err)
		}
		fmt.Printf("ACPI S3 suspend/resume on %s\n", cfg.Name())
		fmt.Printf("suspend power:  %.2f mW\n", res.SuspendPowerMW)
		fmt.Printf("window average: %.2f mW over %.1f s\n", res.AvgPowerMW, res.Duration.Seconds())
		fmt.Printf("resume latency: %v (vs ~300 us DRIPS exit)\n", res.ResumeLatency)
		return
	}

	var cyclesList []odrips.Cycle
	switch {
	case *traceFile != "":
		f, err := os.Open(*traceFile)
		if err != nil {
			fail(1, "%v", err)
		}
		cyclesList, err = workload.ParseTrace(f)
		f.Close()
		if err != nil {
			fail(1, "%v", err)
		}
	case *idle > 0:
		cyclesList = odrips.FixedCycles(*cycles, 0, odrips.Duration(idle.Nanoseconds())*1000)
	default:
		cyclesList = odrips.ConnectedStandby(*cycles, *seed)
	}
	res, err := p.RunCycles(cyclesList)
	if err != nil {
		fail(1, "%v", err)
	}

	fmt.Printf("configuration:        %s\n", cfg.Name())
	fmt.Printf("simulated time:       %.3f s over %d cycles\n", res.Duration.Seconds(), res.Cycles)
	fmt.Printf("average power:        %.2f mW\n", res.AvgPowerMW)
	for _, st := range power.States() {
		fmt.Printf("  %-7s %8.2f mW   residency %8.4f%%\n",
			st.String()+":", res.StatePowerMW[st], 100*res.Residency[st])
	}
	fmt.Printf("entry latency:        avg %v, max %v\n", res.EntryAvg, res.EntryMax)
	fmt.Printf("exit latency:         avg %v, max %v\n", res.ExitAvg, res.ExitMax)
	if res.CtxSave > 0 {
		fmt.Printf("context save:         %v\n", res.CtxSave)
		fmt.Printf("context restore:      %v (verified %d times)\n", res.CtxRestore, res.CtxVerified)
	}
	fmt.Printf("timer drift:          %.3f ppb\n", res.TimerDriftPPB)
	fmt.Printf("wake sources:         %v\n", res.WakeCounts)
	fmt.Printf("transition energy:    %.1f uJ/cycle at %.2f mW idle\n",
		res.CycleEnergy.TransitionUJ, res.CycleEnergy.IdleMW)
	if *faultsFlag != "" {
		fmt.Printf("faults:               %s\n", res.Faults.String())
		if p.Degraded() {
			fmt.Printf("                      context store degraded to retention SRAM\n")
		}
	}

	if *flows {
		fmt.Println("flow trace (most recent steps):")
		for _, fs := range p.FlowTrace() {
			fmt.Printf("  %-5s %-22s at %-12v took %v\n", fs.Flow, fs.Step, fs.At, fs.Duration)
		}
	}

	// Compare against the analytic model, §7 style.
	prof, err := p.AnalyticProfile(platformIdle(cyclesList))
	if err == nil {
		acc := 100 * (1 - abs(prof.AverageMW()-res.AvgPowerMW)/res.AvgPowerMW)
		fmt.Printf("Equation-1 model:     %.2f mW (accuracy %.1f%%)\n", prof.AverageMW(), acc)
	}
}

func platformIdle(cycles []odrips.Cycle) odrips.Duration {
	if len(cycles) == 0 {
		return 30 * odrips.Second
	}
	return cycles[0].Idle
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
