package odrips_test

import (
	"fmt"
	"log"

	"odrips"
)

// ExampleRuntime_NewPlatform runs the paper's headline comparison:
// baseline DRIPS against full ODRIPS on an identical connected-standby
// workload.
func ExampleRuntime_NewPlatform() {
	rt, err := odrips.OpenRuntime("", "", odrips.FFOn, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Flush()
	run := func(cfg odrips.Config) odrips.Result {
		p, err := rt.NewPlatform(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := p.RunCycles(odrips.FixedCycles(2, 0, 30*odrips.Second))
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	base := run(odrips.DefaultConfig())
	opt := run(odrips.ODRIPSConfig())
	fmt.Printf("baseline: %.0f mW in DRIPS\n", base.IdlePowerMW())
	fmt.Printf("ODRIPS:   %.0f mW in ODRIPS\n", opt.IdlePowerMW())
	fmt.Printf("saving:   %.0f%%\n", 100*(base.AvgPowerMW-opt.AvgPowerMW)/base.AvgPowerMW)
	// Output:
	// baseline: 60 mW in DRIPS
	// ODRIPS:   43 mW in ODRIPS
	// saving:   22%
}

// ExampleBreakEven computes the minimum idle residency at which ODRIPS
// pays for its longer transitions (the blue line of Fig. 6(a)).
func ExampleBreakEven() {
	rt, err := odrips.OpenRuntime("", "", odrips.FFOn, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Flush()
	run := func(cfg odrips.Config) odrips.Result {
		p, err := rt.NewPlatform(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := p.RunCycles(odrips.FixedCycles(2, 0, 30*odrips.Second))
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	base := run(odrips.DefaultConfig())
	opt := run(odrips.ODRIPSConfig())
	be, err := odrips.BreakEven(base.CycleEnergy, opt.CycleEnergy)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ODRIPS pays off beyond %.1f ms of idle residency\n", be.Milliseconds())
	// Output:
	// ODRIPS pays off beyond 6.4 ms of idle residency
}

// ExampleConfig_Name shows the configuration labels used throughout the
// paper's figures.
func ExampleConfig_Name() {
	fmt.Println(odrips.DefaultConfig().Name())
	fmt.Println(odrips.DefaultConfig().WithTechniques(odrips.WakeUpOff).Name())
	fmt.Println(odrips.DefaultConfig().WithTechniques(odrips.WakeUpOff | odrips.AONIOGate).Name())
	fmt.Println(odrips.DefaultConfig().WithTechniques(odrips.CtxSGXDRAM).Name())
	fmt.Println(odrips.ODRIPSConfig().Name())
	// Output:
	// Baseline
	// WAKE-UP-OFF
	// AON-IO-GATE
	// CTX-SGX-DRAM
	// ODRIPS
}

// ExampleCalibration reproduces the §4.1.3 fixed-point geometry.
func ExampleCalibration() {
	r, err := odrips.Calibration()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Step is Q%d.%d fixed point; calibration counts 2^%d slow cycles\n",
		r.IntBits, r.FracBits, r.FracBits)
	fmt.Printf("quantization drift stays under %.2f ppb\n", r.DriftPPB)
	// Output:
	// Step is Q10.21 fixed point; calibration counts 2^21 slow cycles
	// quantization drift stays under 0.65 ppb
}
