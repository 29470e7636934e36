package experiments

import (
	"fmt"
	"math/rand"
	"sync"

	"odrips/internal/dram"
	"odrips/internal/mee"
	"odrips/internal/platform"
	"odrips/internal/power"
	"odrips/internal/report"
	"odrips/internal/sim"
)

// Ablation studies for the design choices the paper discusses but does not
// quantify: the MEE metadata cache size behind the §6.3 latencies, the two
// timer-wake design alternatives of §4.1.1, the EPG-vs-FET choice of §5.1,
// and the sensitivity of the break-even residencies to the exit
// re-initialization cost.

// MEECacheRow is one cache size of the MEE ablation.
type MEECacheRow struct {
	Lines      int
	SaveBlocks uint64
	SaveLat    sim.Duration
	RestoreLat sim.Duration
	HitRatePct float64
}

// MEECacheAblation sweeps the MEE metadata cache size and reports context
// save/restore traffic and latency for the ~200 KB context.
type MEECacheAblation struct {
	Rows []MEECacheRow
}

// AblationMEECache runs the sweep. Every row protects the same region
// under the same key, so the rows that miss the memo share one format of
// its metadata, computed by the first of them.
func (rt *Runtime) AblationMEECache() (*MEECacheAblation, error) {
	sizes := []int{16, 32, 64, 128, 256, 512}
	format := sync.OnceValues(func() (*mee.Formatted, error) {
		const dataBlocks = 3141 // the serialized ~196 KiB context
		var key [32]byte
		key[0] = 0x5A
		return mee.Format(0x1000_0000, dataBlocks, key)
	})
	rows, err := RunPoints(rt, len(sizes),
		func(i int) string { return fmt.Sprintf("%d cache lines", sizes[i]) },
		func(i int) (MEECacheRow, error) {
			row, _, err := meeCacheMemo.Get(rt, meeCacheKey{lines: sizes[i]}, func() (MEECacheRow, error) {
				f, err := format()
				if err != nil {
					return MEECacheRow{}, err
				}
				return meeCachePoint(f, sizes[i])
			})
			return row, err
		})
	if err != nil {
		return nil, err
	}
	return &MEECacheAblation{Rows: rows}, nil
}

// meeCacheKey identifies one row by its cache size.
type meeCacheKey struct{ lines int }

// StoreKey renders the row's stable store key.
func (k meeCacheKey) StoreKey() []byte { return fmt.Appendf(nil, "lines=%d", k.lines) }

var meeCacheMemo = PointMemo[meeCacheKey, MEECacheRow]{
	Class: "meecache",
	Encode: func(r MEECacheRow) []byte {
		var e MemoEncoder
		e.U64(uint64(r.Lines))
		e.U64(r.SaveBlocks)
		e.U64(uint64(r.SaveLat))
		e.U64(uint64(r.RestoreLat))
		e.F64(r.HitRatePct)
		return e.Bytes()
	},
	Decode: func(b []byte) (MEECacheRow, bool) {
		d := NewMemoDecoder(b)
		r := MEECacheRow{Lines: int(d.U64()), SaveBlocks: d.U64(), SaveLat: sim.Duration(d.U64()), RestoreLat: sim.Duration(d.U64()), HitRatePct: d.F64()}
		return r, d.Done()
	},
}

// meeCachePoint saves the ~196 KiB context through an MEE with the given
// cache size over a fresh region holding f's metadata, and restores it
// through a cold import of the saved state.
func meeCachePoint(f *mee.Formatted, lines int) (MEECacheRow, error) {
	payload := make([]byte, f.Layout().DataBlocks*mee.BlockSize)
	rand.New(rand.NewSource(99)).Read(payload)

	mem := dram.New(dram.Skylake8GB())
	eng, err := mee.NewFormatted(mem, f, lines)
	if err != nil {
		return MEECacheRow{}, err
	}
	eng.ResetStats()
	if err := eng.WriteRegion(payload); err != nil {
		return MEECacheRow{}, err
	}
	if err := eng.Flush(); err != nil {
		return MEECacheRow{}, err
	}
	ws := eng.Stats()
	cold, err := mee.ImportState(mem, eng.ExportState(), lines)
	if err != nil {
		return MEECacheRow{}, err
	}
	if _, err := cold.ReadRegion(len(payload)); err != nil {
		return MEECacheRow{}, err
	}
	rs := cold.Stats()
	hitPct := 0.0
	if ws.CacheHits+ws.CacheMisses > 0 {
		hitPct = 100 * float64(ws.CacheHits) / float64(ws.CacheHits+ws.CacheMisses)
	}
	return MEECacheRow{
		Lines:      lines,
		SaveBlocks: ws.TotalBlocks(),
		SaveLat:    ws.TransferTime(mem, true),
		RestoreLat: rs.TransferTime(mem, false),
		HitRatePct: hitPct,
	}, nil
}

// Table renders the cache ablation.
func (r *MEECacheAblation) Table() *report.Table {
	t := report.NewTable("Ablation — MEE metadata cache size vs. context transfer",
		"Cache lines", "Save traffic", "Save", "Restore", "Write hit rate")
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%d (%d KiB)", row.Lines, row.Lines*64/1024),
			fmt.Sprintf("%d blk", row.SaveBlocks),
			fmt.Sprintf("%.1f us", row.SaveLat.Microseconds()),
			fmt.Sprintf("%.1f us", row.RestoreLat.Microseconds()),
			fmt.Sprintf("%.1f%%", row.HitRatePct))
	}
	t.AddNote("the shipped configuration (256 lines / 16 KiB) reproduces the paper's 18/13 us")
	return t
}

// TimerAltRow is one §4.1.1 design alternative.
type TimerAltRow struct {
	Design     string
	IdleMW     float64
	ExtraPins  int
	EnablesFET bool
	Note       string
}

// TimerAltAblation compares the two §4.1.1 designs for slow-clock timer
// wake handling.
type TimerAltAblation struct {
	Rows []TimerAltRow
}

// AblationTimerAlternatives quantifies the choice the paper makes: hosting
// the slow timer in the chipset (alternative 2) versus bringing the
// 32.768 kHz crystal onto the processor die (alternative 1).
func (rt *Runtime) AblationTimerAlternatives() (*TimerAltAblation, error) {
	bud := platform.Skylake()
	configs := []platform.Config{
		platform.DefaultConfig(),
		platform.DefaultConfig().WithTechniques(platform.WakeUpOff),
		platform.DefaultConfig().WithTechniques(platform.WakeUpOff | platform.AONIOGate),
	}
	results, err := RunPoints(rt, len(configs),
		func(i int) string { return configs[i].Name() },
		func(i int) (platform.Result, error) { return rt.runConfig(configs[i], 2) })
	if err != nil {
		return nil, err
	}
	base, alt2, alt2Gated := results[0], results[1], results[2]
	// Alternative 1, modeled analytically on the same budget: the 24 MHz
	// crystal still turns off and the timer toggles at 32 kHz on-die
	// (residual ~0.06 mW nominal), but a new clock input pad plus on-die
	// 32 kHz distribution costs ~0.5 mW nominal, the processor keeps its
	// AON IO ring powered (the chipset is not the wake hub, so the FET
	// gating of §5 is off the table), and the extra package pin raises
	// cost (ITRS; paper footnote 3).
	const (
		alt1TimerResidualMW = 0.06
		alt1PadMW           = 0.50
	)
	alt1Idle := base.IdlePowerMW() +
		(-bud.Xtal24MW-bud.WakeTimerIdleMW+alt1TimerResidualMW+alt1PadMW)/bud.EffIdle -
		(bud.VRPmuMW - bud.VRPmuShedMW)

	return &TimerAltAblation{Rows: []TimerAltRow{
		{
			Design: "Baseline DRIPS (24 MHz timer on-die)",
			IdleMW: base.IdlePowerMW(),
			Note:   "reference",
		},
		{
			Design:    "Alt 1: 32 kHz crystal into the processor",
			IdleMW:    alt1Idle,
			ExtraPins: 1,
			Note:      "AON IO gating unavailable; extra package pin",
		},
		{
			Design:     "Alt 2: chipset hosts the timer (WAKE-UP-OFF)",
			IdleMW:     alt2.IdlePowerMW(),
			EnablesFET: true,
			Note:       "paper's choice",
		},
		{
			Design:     "Alt 2 + AON IO gating it enables",
			IdleMW:     alt2Gated.IdlePowerMW(),
			EnablesFET: true,
			Note:       "the §5 follow-on only alt 2 allows",
		},
	}}, nil
}

// Table renders the §4.1.1 comparison.
func (r *TimerAltAblation) Table() *report.Table {
	t := report.NewTable("Ablation — §4.1.1 timer-wake design alternatives",
		"Design", "Idle power", "Extra pins", "Enables AON IO gating", "Note")
	for _, row := range r.Rows {
		fet := "no"
		if row.EnablesFET {
			fet = "yes"
		}
		t.AddRow(row.Design, fmt.Sprintf("%.2f mW", row.IdleMW),
			fmt.Sprintf("%d", row.ExtraPins), fet, row.Note)
	}
	t.AddNote("alternative 2 wins on pins, on idle power, and by unlocking the FET gating")
	return t
}

// GateRow is one §5.1 gating option.
type GateRow struct {
	Gate      string
	IdleMW    float64
	LeakPct   float64
	ExtraPins int
}

// GateAblation compares the board FET against an embedded power gate.
type GateAblation struct {
	Rows []GateRow
}

// AblationIOGate quantifies §5.1: the board FET leaks <0.3% of the gated
// load; an embedded power gate (EPG) is area-efficient but leaks more and
// needs control pins.
func (rt *Runtime) AblationIOGate() (*GateAblation, error) {
	opts := []struct {
		name string
		frac float64
		pins int
	}{
		{"Board FET (paper's choice)", 0.003, 0},
		{"Embedded power gate (EPG)", 0.025, 2},
		{"No gating (baseline AON IOs)", 1.0, 0},
	}
	rows, err := RunPoints(rt, len(opts),
		func(i int) string { return opts[i].name },
		func(i int) (GateRow, error) {
			opt := opts[i]
			cfg := platform.ODRIPSConfig()
			if opt.frac < 1.0 {
				cfg.FETLeakageFraction = opt.frac
			} else {
				cfg.Techniques = platform.WakeUpOff | platform.CtxSGXDRAM // ring stays powered
			}
			res, err := rt.runConfig(cfg, 2)
			if err != nil {
				return GateRow{}, err
			}
			return GateRow{
				Gate:      opt.name,
				IdleMW:    res.IdlePowerMW(),
				LeakPct:   opt.frac * 100,
				ExtraPins: opt.pins,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	return &GateAblation{Rows: rows}, nil
}

// Table renders the gate comparison.
func (r *GateAblation) Table() *report.Table {
	t := report.NewTable("Ablation — §5.1 AON IO gating options",
		"Gate", "Idle power", "Off-state leakage", "Extra pins")
	for _, row := range r.Rows {
		t.AddRow(row.Gate, fmt.Sprintf("%.2f mW", row.IdleMW),
			fmt.Sprintf("%.1f%% of load", row.LeakPct),
			fmt.Sprintf("%d", row.ExtraPins))
	}
	return t
}

// ReinitRow is one point of the break-even sensitivity sweep.
type ReinitRow struct {
	Scale     float64
	BreakEven sim.Duration
	ExitAvg   sim.Duration
}

// ReinitSensitivity sweeps the exit re-initialization cost and shows how
// the ODRIPS break-even residency scales — the knob our calibration pins
// to the paper's measured 6.5 ms.
type ReinitSensitivity struct {
	Rows []ReinitRow
}

// AblationReinitSensitivity runs the sweep; the baseline and all four
// scale points evaluate in parallel.
func (rt *Runtime) AblationReinitSensitivity() (*ReinitSensitivity, error) {
	scales := []float64{0.5, 1.0, 2.0, 4.0}
	results, err := RunPoints(rt, len(scales)+1,
		func(i int) string {
			if i == 0 {
				return "baseline"
			}
			return fmt.Sprintf("reinit x%.1f", scales[i-1])
		},
		func(i int) (platform.Result, error) {
			if i == 0 {
				return rt.runConfig(platform.DefaultConfig(), 2)
			}
			cfg := platform.ODRIPSConfig()
			cfg.ExitReinitScale = scales[i-1]
			return rt.runConfig(cfg, 2)
		})
	if err != nil {
		return nil, err
	}
	base := results[0]
	out := &ReinitSensitivity{}
	for i, scale := range scales {
		res := results[i+1]
		be, err := power.BreakEven(base.CycleEnergy, res.CycleEnergy)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, ReinitRow{Scale: scale, BreakEven: be, ExitAvg: res.ExitAvg})
	}
	return out, nil
}

// Table renders the sensitivity sweep.
func (r *ReinitSensitivity) Table() *report.Table {
	t := report.NewTable("Ablation — break-even vs. exit re-initialization cost (ODRIPS)",
		"Re-init scale", "Exit latency", "Break-even")
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%.1fx", row.Scale),
			fmt.Sprintf("%.0f us", row.ExitAvg.Microseconds()),
			fmt.Sprintf("%.2f ms", row.BreakEven.Milliseconds()))
	}
	t.AddNote("1.0x is the calibration that lands the paper's 6.5 ms")
	return t
}
