// Command odrips-fleet runs a fleet-scale simulation: N perturbed device
// configurations against one shared cycle-memo plane, reported as
// battery-life percentiles, a residency histogram, wake statistics, and
// memo-plane effectiveness.
//
// Usage:
//
//	odrips-fleet -spec fleet.json            # spec file, text report
//	odrips-fleet -spec fleet.json -format json
//	odrips-fleet -devices 10000 -shards 16   # quick spec-less run
//	odrips-fleet -spec fleet.json -memocache rw  # persist memo classes
//
// The spec file is JSON with human-readable durations:
//
//	{
//	  "name": "nightly", "devices": 10000, "preset": "odrips",
//	  "horizon": "6h", "wake_period": "30s", "shards": 16,
//	  "spread": {
//	    "drift_ppb": [0, 40],
//	    "battery_mwh": [36000, 30000],
//	    "jitter_steps": ["0s", "250ms"],
//	    "faults": [{"device": 3, "plan": "wake@1.3"}]
//	  }
//	}
//
// The report's aggregates section is byte-identical at any -shards,
// -workers, and -fastforward setting; the memo section describes how
// the work was executed and legitimately varies with those knobs.
package main

import (
	"flag"
	"fmt"
	"os"

	"odrips"
)

func main() {
	specPath := flag.String("spec", "", "fleet spec file (JSON); omit to build a spec from the flags below")
	devices := flag.Int("devices", 0, "fleet size when no -spec file is given")
	preset := flag.String("preset", "", "base configuration preset: odrips, baseline, wake-up-off, aon-io-gate, ctx-sgx-dram")
	shards := flag.Int("shards", 0, "aggregation shard count (overrides the spec when > 0)")
	workers := flag.Int("workers", 0, "simulation worker pool size (0 = all cores, 1 = sequential)")
	format := flag.String("format", "text", "report format: text, json, or markdown")
	outPath := flag.String("o", "", "write the report to `file` instead of stdout")
	ffFlag := flag.String("fastforward", "on", "steady-state fast-forward: on, off, or verify (aggregates are byte-identical across all three)")
	memoFlag := flag.String("memocache", "", "persistent memo store backing the plane: off, rw, or ro (audit a store with -memocache ro -fastforward verify)")
	memoDir := flag.String("memocachedir", "", "persistent memo store directory (default .odrips-memocache)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "odrips-fleet: %v\n", err)
		os.Exit(2)
	}

	if *workers < 0 {
		fail(fmt.Errorf("-workers %d: must not be negative", *workers))
	}
	if *shards < 0 {
		fail(fmt.Errorf("-shards %d: must not be negative", *shards))
	}
	ffMode, err := odrips.ParseFFMode(*ffFlag)
	if err != nil {
		fail(err)
	}
	rt, err := odrips.OpenRuntime(*memoFlag, *memoDir, ffMode, *workers)
	if err != nil {
		fail(fmt.Errorf("-memocache: %w", err))
	}

	var spec odrips.FleetSpec
	switch {
	case *specPath != "":
		data, err := os.ReadFile(*specPath)
		if err != nil {
			fail(err)
		}
		if spec, err = odrips.ParseFleetSpec(data); err != nil {
			fail(err)
		}
	case *devices > 0:
		spec = odrips.FleetSpec{Name: "adhoc", Devices: *devices, Preset: *preset}
	default:
		fail(fmt.Errorf("need -spec <file> or -devices <n> (see -h)"))
	}
	if *shards > 0 {
		spec.Shards = *shards
	}
	if *workers > 0 {
		spec.Workers = *workers
	}

	rep, err := odrips.Fleet(rt, spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "odrips-fleet: %v\n", err)
		os.Exit(1)
	}

	var out []byte
	switch *format {
	case "text":
		out = []byte(rep.Text())
	case "json":
		b, err := rep.JSON()
		if err != nil {
			fail(err)
		}
		out = append(b, '\n')
	case "markdown":
		out = []byte(rep.Markdown())
	default:
		fail(fmt.Errorf("unknown format %q (want text, json, or markdown)", *format))
	}

	if *outPath == "" {
		os.Stdout.Write(out)
		return
	}
	if err := os.WriteFile(*outPath, out, 0o644); err != nil {
		fail(err)
	}
}
