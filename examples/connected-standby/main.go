// Connected-standby overnight scenario: the workload the paper's
// introduction motivates. A tablet is left on standby overnight — idle but
// connected, taking periodic kernel-maintenance wakes plus occasional
// network and thermal events — and the question is how much battery each
// DRIPS design burns by morning.
package main

import (
	"fmt"
	"log"

	"odrips"
	"odrips/internal/battery"
)

const nightHrs = 8.0

func main() {
	rt, err := odrips.OpenRuntime("", "", odrips.FFOn, 0) // over ODRIPS_MEMOCACHE's store, if set
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Flush() // runs never write: what they discovered reaches the store here
	// One hour of realistic connected standby (~120 cycles with jittered
	// 30 s idle windows and a sprinkling of external/thermal wakes);
	// results extrapolate linearly to the full night.
	const cyclesPerHour = 120

	pack := battery.Tablet()
	fmt.Printf("overnight standby: %.0f h on a %.1f Wh usable pack (2.5%%/month self-discharge)\n\n",
		nightHrs, pack.UsableMWh()/1000)
	fmt.Printf("%-14s %10s %12s %14s %12s\n",
		"design", "avg power", "night drain", "battery used", "wakes")

	type scenario struct {
		name string
		cfg  odrips.Config
	}
	scenarios := []scenario{
		{"Baseline", odrips.DefaultConfig()},
		{"ODRIPS", odrips.ODRIPSConfig()},
	}
	var baseMWh float64
	for i, sc := range scenarios {
		p, err := rt.NewPlatform(sc.cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := p.RunCycles(odrips.ConnectedStandby(cyclesPerHour, 2026))
		if err != nil {
			log.Fatal(err)
		}
		nightMWh := res.AvgPowerMW * nightHrs
		pctOfBattery, err := pack.DrainPct(res.AvgPowerMW, nightHrs)
		if err != nil {
			log.Fatal(err)
		}
		var wakes int
		for _, n := range res.WakeCounts {
			wakes += int(n)
		}
		fmt.Printf("%-14s %7.2f mW %9.1f mWh %12.2f%% %9d/h\n",
			sc.name, res.AvgPowerMW, nightMWh, pctOfBattery, wakes)
		if i == 0 {
			baseMWh = nightMWh
		} else {
			fmt.Printf("%-14s %s%.1f mWh saved per night (%.1f%%)\n",
				"", "→ ", baseMWh-nightMWh, 100*(baseMWh-nightMWh)/baseMWh)
		}
	}

	// How many nights of standby does the battery alone sustain?
	fmt.Println()
	for _, sc := range scenarios {
		p, err := rt.NewPlatform(sc.cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := p.RunCycles(odrips.ConnectedStandby(cyclesPerHour, 2026))
		if err != nil {
			log.Fatal(err)
		}
		days, err := pack.StandbyDays(res.AvgPowerMW)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s a full charge sustains %.0f days of connected standby\n", sc.name, days)
	}
}
