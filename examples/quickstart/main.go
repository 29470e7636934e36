// Quickstart: build the baseline DRIPS platform and the ODRIPS platform,
// run the same connected-standby workload on both, and compare — the
// paper's headline experiment in ~40 lines.
package main

import (
	"fmt"
	"log"

	"odrips"
)

func main() {
	rt, err := odrips.OpenRuntime("", "", odrips.FFOn, 0) // over ODRIPS_MEMOCACHE's store, if set
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Flush() // runs never write: what they discovered reaches the store here
	// Identical deterministic workload: five 30-second idle periods
	// separated by kernel-maintenance bursts (Fig. 2).
	wl := odrips.FixedCycles(5, 0, 30*odrips.Second)

	run := func(cfg odrips.Config) odrips.Result {
		p, err := rt.NewPlatform(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := p.RunCycles(wl)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	base := run(odrips.DefaultConfig())
	opt := run(odrips.ODRIPSConfig())

	fmt.Printf("baseline DRIPS:  %6.2f mW average (%6.2f mW while idle)\n",
		base.AvgPowerMW, base.IdlePowerMW())
	fmt.Printf("ODRIPS:          %6.2f mW average (%6.2f mW while idle)\n",
		opt.AvgPowerMW, opt.IdlePowerMW())
	fmt.Printf("reduction:       %.1f%%   (paper: 22%%)\n",
		100*(base.AvgPowerMW-opt.AvgPowerMW)/base.AvgPowerMW)

	be, err := odrips.BreakEven(base.CycleEnergy, opt.CycleEnergy)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("break-even:      %.2f ms of idle residency (paper: 6.5 ms)\n", be.Milliseconds())
	fmt.Printf("context save:    %v to SGX-protected DRAM (paper: ~18 us)\n", opt.CtxSave)
	fmt.Printf("context restore: %v, verified %d times (paper: ~13 us)\n",
		opt.CtxRestore, opt.CtxVerified)
	fmt.Printf("timer drift:     %.2f ppb across hand-overs (target: ~1 ppb)\n", opt.TimerDriftPPB)
}
