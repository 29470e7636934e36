// Fault sweep: what each recovery edge costs. The paper's flows assume
// entry is never raced, restore always verifies, calibration never ages,
// and the FET latches first try; the fault plane violates each assumption
// on a deterministic schedule and the platform recovers — abort/unwind,
// retry/degrade, recalibrate, re-drive. This example injects one scenario
// at a time into an otherwise identical ODRIPS run and prints the energy
// bill, then shows a single faulted run in detail.
package main

import (
	"fmt"
	"log"
	"os"

	"odrips"
)

func main() {
	rt, err := odrips.OpenRuntime("", "", odrips.FFOn, 0) // over ODRIPS_MEMOCACHE's store, if set
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Flush() // runs never write: what they discovered reaches the store here
	// The library sweep: every recovery edge vs. the clean run.
	r, err := rt.FaultSweep()
	if err != nil {
		log.Fatal(err)
	}
	r.Table().Render(os.Stdout)

	// One scenario in detail: a wake fires while entry is saving the
	// context (cycle 1, step 3), then a persistent restore failure in
	// cycle 2 degrades the context store to retention SRAM.
	plan, err := odrips.ParseFaultPlan("wake@1.3;meefail@2:1")
	if err != nil {
		log.Fatal(err)
	}
	p, err := rt.NewPlatform(odrips.ODRIPSConfig())
	if err != nil {
		log.Fatal(err)
	}
	if err := p.InjectFaults(plan); err != nil {
		log.Fatal(err)
	}
	res, err := p.RunCycles(odrips.FixedCycles(3, 0, 30*odrips.Second))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Printf("plan %q over 3x30s cycles:\n", plan.String())
	fmt.Printf("  average power: %.3f mW\n", res.AvgPowerMW)
	fmt.Printf("  %s\n", res.Faults.String())
	fmt.Printf("  degraded to retention SRAM: %v\n", p.Degraded())
	fmt.Println("  recovery steps in the flow trace:")
	for _, fs := range p.FlowTrace() {
		if fs.Flow == "fault" || fs.Flow == "abort" || fs.Step == "recalibrate" {
			fmt.Printf("    %-6s %-22s at %-14v took %v\n",
				fs.Flow, fs.Step, fs.At, fs.Duration)
		}
	}
}
