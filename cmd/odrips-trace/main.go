// Command odrips-trace captures a sampled power trace of a connected-
// standby cycle with the modeled Keysight-style power analyzer (§7, Fig. 5)
// and writes it as CSV: one row per 50 us sample, one column per channel
// (battery, processor, DRAM, chipset).
//
// Usage:
//
//	odrips-trace -config odrips -idle 2s > trace.csv
//	odrips-trace -config baseline -interval 1ms -out trace.csv
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"odrips"
	"odrips/internal/measure"
	"odrips/internal/platform"
	"odrips/internal/sim"
)

func main() {
	name := flag.String("config", "odrips", "platform configuration: baseline, wake-up-off, aon-io-gate, ctx-sgx-dram, odrips, odrips-mram or odrips-pcm")
	idle := flag.Duration("idle", 2*time.Second, "idle window of the traced cycle")
	interval := flag.Duration("interval", 50*time.Microsecond, "sampling interval")
	out := flag.String("out", "-", "output file (- for stdout)")
	flag.Parse()

	// fail reports an error and exits: 2 for flag misuse, 1 for a failed
	// run.
	fail := func(code int, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "odrips-trace: "+format+"\n", args...)
		os.Exit(code)
	}

	if *idle <= 0 {
		fail(2, "-idle %v: must be positive", *idle)
	}
	if *interval <= 0 {
		fail(2, "-interval %v: must be positive", *interval)
	}

	cfg, err := platform.Preset(*name)
	if err != nil {
		fail(2, "-config: %v", err)
	}
	cfg.ForceDeepest = true

	rt, err := odrips.OpenRuntime("", "", odrips.FFOn, 0) // over ODRIPS_MEMOCACHE's store, if set
	if err != nil {
		fail(1, "%v", err)
	}
	defer rt.Flush() // a failure's os.Exit skips it
	p, err := rt.NewPlatform(cfg)
	if err != nil {
		fail(1, "%v", err)
	}

	meter := p.Meter()
	groupProbe := func(group string) func() float64 {
		return func() float64 {
			var mw float64
			for _, c := range meter.Components() {
				if c.Group() == group {
					if strings.HasPrefix(c.Name(), "vr.") {
						mw += c.DrawMW()
					} else {
						mw += c.DrawMW() / meter.Efficiency()
					}
				}
			}
			return mw
		}
	}
	analyzer, err := measure.NewAnalyzer(p.Scheduler(),
		measure.Channel{Name: "battery_mW", Probe: meter.BatteryPowerMW},
		measure.Channel{Name: "processor_mW", Probe: groupProbe("processor")},
		measure.Channel{Name: "dram_mW", Probe: groupProbe("dram")},
		measure.Channel{Name: "chipset_mW", Probe: groupProbe("chipset")},
	)
	if err != nil {
		fail(1, "%v", err)
	}
	if err := analyzer.SetInterval(sim.FromSeconds(interval.Seconds())); err != nil {
		fail(1, "%v", err)
	}
	if err := analyzer.Start(); err != nil {
		fail(1, "%v", err)
	}
	// The sampling ticker must stop on its own or RunCycles never drains
	// the event queue: one cycle is maintenance (~150 ms) + idle + exits.
	horizon := sim.FromSeconds(idle.Seconds() + 0.5)
	analyzer.StopAt(p.Scheduler().Now().Add(horizon))
	res, err := p.RunCycles(odrips.FixedCycles(1, 0, odrips.Duration(idle.Nanoseconds())*1000))
	if err != nil {
		fail(1, "%v", err)
	}
	analyzer.Stop()

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fail(1, "%v", err)
		}
		defer f.Close()
		w = f
	}
	cw := csv.NewWriter(w)
	header := append([]string{"t_us"}, analyzer.ChannelNames()...)
	if err := cw.Write(header); err != nil {
		fail(1, "%v", err)
	}
	for _, s := range analyzer.Samples() {
		row := make([]string, 0, len(s.MW)+1)
		row = append(row, strconv.FormatFloat(float64(s.At)/1e6, 'f', 1, 64))
		for _, mw := range s.MW {
			row = append(row, strconv.FormatFloat(mw, 'f', 4, 64))
		}
		if err := cw.Write(row); err != nil {
			fail(1, "%v", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		fail(1, "%v", err)
	}
	fmt.Fprintf(os.Stderr, "captured %d samples over %.3f s; run average %.2f mW\n",
		len(analyzer.Samples()), res.Duration.Seconds(), res.AvgPowerMW)
}
