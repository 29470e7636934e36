// Package platform assembles the full mobile system of Fig. 1(a) —
// processor, chipset, board (crystals, FET, regulators), and DRAM — and
// executes the DRIPS/ODRIPS entry and exit flows end-to-end on the
// discrete-event kernel, with exact energy accounting.
package platform

import (
	"fmt"

	"odrips/internal/dram"
)

// Technique is a bitmask of the paper's three power-reduction techniques.
type Technique uint8

const (
	// WakeUpOff migrates timer wake-up handling to the chipset and turns
	// off the 24 MHz crystal in idle (§4).
	WakeUpOff Technique = 1 << iota
	// AONIOGate offloads the processor AON IO functions to the chipset and
	// power-gates the rail through the board FET (§5). Requires WakeUpOff.
	AONIOGate
	// CtxSGXDRAM moves the processor context from retention SRAMs into the
	// SGX-protected DRAM region through the MEE (§6).
	CtxSGXDRAM
)

// ODRIPS is the full optimized state: all three techniques together.
const ODRIPS = WakeUpOff | AONIOGate | CtxSGXDRAM

// Has reports whether t includes x.
func (t Technique) Has(x Technique) bool { return t&x == x }

// String names the combination using the paper's labels.
func (t Technique) String() string {
	switch t {
	case 0:
		return "Baseline"
	case WakeUpOff:
		return "WAKE-UP-OFF"
	case WakeUpOff | AONIOGate:
		return "AON-IO-GATE"
	case CtxSGXDRAM:
		return "CTX-SGX-DRAM"
	case ODRIPS:
		return "ODRIPS"
	default:
		s := ""
		if t.Has(WakeUpOff) {
			s += "+wake-up-off"
		}
		if t.Has(AONIOGate) {
			s += "+aon-io-gate"
		}
		if t.Has(CtxSGXDRAM) {
			s += "+ctx-sgx-dram"
		}
		return s
	}
}

// Config selects a platform build.
type Config struct {
	// Techniques enables ODRIPS techniques; zero is baseline DRIPS.
	Techniques Technique
	// CoreFreqMHz is the core clock during kernel maintenance (§8.1):
	// 800 (baseline), 1000, or 1500.
	CoreFreqMHz int
	// DRAMMTps is the memory transfer rate (§8.2): 1600 (baseline), 1067,
	// or 800 — the paper's "1.6 GHz", "1.067 GHz", "0.8 GHz".
	DRAMMTps int
	// MainMemory selects DDR3L (baseline) or PCM (§8.3, ODRIPS-PCM).
	MainMemory dram.Technology
	// Generation selects Skylake (default) or the Haswell-ULT measurement
	// platform of §7 (baseline DRIPS only; ODRIPS ships with Skylake).
	Generation Generation
	// CtxInEMRAM stores the context in optimistic on-chip eMRAM instead of
	// DRAM (§8.3, ODRIPS-MRAM). Mutually exclusive with CtxSGXDRAM.
	CtxInEMRAM bool
	// ForceDeepest skips the LTR/TNTE gating so residency sweeps can force
	// DRIPS at arbitrarily short residencies (§7's break-even methodology
	// uses a debug switch the same way).
	ForceDeepest bool
	// Seed drives context generation and workload jitter.
	Seed int64
	// XtalFastPPB/XtalSlowPPB are the crystal frequency errors.
	XtalFastPPB int64
	XtalSlowPPB int64

	// Ablation knobs (zero = calibrated default).
	//
	// ExitReinitScale multiplies the per-technique exit re-initialization
	// durations, the calibrated counterpart of the measured break-even
	// residencies; sweeping it shows how break-even scales with exit cost.
	ExitReinitScale float64
	// LLCDirtyFraction overrides the fraction of the LLC flushed at entry.
	LLCDirtyFraction float64
	// FETLeakageFraction overrides the AON IO gate's off-state leakage
	// relative to the gated load (§5.1: board FET ~0.3%; an embedded
	// power gate leaks more).
	FETLeakageFraction float64
	// TDPWatts selects the product's thermal design point (§1: Skylake
	// spans 3.5 W handhelds to 95 W desktops; the baseline is the 15 W
	// U-series of Table 1). Active-state power scales with the TDP class
	// while the always-on idle infrastructure does not — which is why the
	// paper says ODRIPS matters most at low TDP. Zero means 15.
	TDPWatts float64
}

// Config must stay a pure value type: the experiment engine memoizes sweep
// points in maps keyed on (Config, residency, cycles), and worker-pool
// determinism relies on Config copies sharing no mutable state. This
// declaration fails to compile if a non-comparable field (slice, map,
// func) is ever added.
var _ map[Config]struct{}

// DefaultConfig returns the paper's baseline platform (Table 1).
func DefaultConfig() Config {
	return Config{
		Techniques:  0,
		CoreFreqMHz: 800,
		DRAMMTps:    1600,
		MainMemory:  dram.DDR3L,
		Seed:        1,
		XtalFastPPB: 2_300,  // a realistic ±ppm-class crystal
		XtalSlowPPB: -4_100, // RTC crystals are typically worse
	}
}

// ODRIPSConfig returns the full ODRIPS platform.
func ODRIPSConfig() Config {
	c := DefaultConfig()
	c.Techniques = ODRIPS
	return c
}

// WithTechniques returns a copy with the given techniques.
func (c Config) WithTechniques(t Technique) Config {
	c.Techniques = t
	return c
}

// Preset returns the named configuration. It is the one table of names
// odrips-sim -config, odrips-trace -config and fleet presets accept; an
// unknown name's error lists them all.
func Preset(name string) (Config, error) {
	base := DefaultConfig()
	switch name {
	case "baseline":
		return base, nil
	case "wake-up-off":
		return base.WithTechniques(WakeUpOff), nil
	case "aon-io-gate":
		return base.WithTechniques(WakeUpOff | AONIOGate), nil
	case "ctx-sgx-dram":
		return base.WithTechniques(CtxSGXDRAM), nil
	case "odrips":
		return ODRIPSConfig(), nil
	case "odrips-mram":
		c := base.WithTechniques(WakeUpOff | AONIOGate)
		c.CtxInEMRAM = true
		return c, nil
	case "odrips-pcm":
		c := ODRIPSConfig()
		c.MainMemory = dram.PCM
		return c, nil
	}
	return Config{}, fmt.Errorf("unknown preset %q (want baseline, wake-up-off, aon-io-gate, ctx-sgx-dram, odrips, odrips-mram or odrips-pcm)", name)
}

// Name returns a human-readable configuration label.
func (c Config) Name() string {
	name := c.Techniques.String()
	if c.Generation == GenHaswell {
		name = "Haswell " + name
	}
	if c.CtxInEMRAM {
		name = "ODRIPS-MRAM"
	}
	if c.MainMemory == dram.PCM {
		name = "ODRIPS-PCM"
	}
	return name
}

// Validate checks configuration consistency.
func (c Config) Validate() error {
	if c.Techniques.Has(AONIOGate) && !c.Techniques.Has(WakeUpOff) {
		return fmt.Errorf("platform: AON IO power-gating requires wake-up event migration (paper §8, footnote 4)")
	}
	if c.CtxInEMRAM && c.Techniques.Has(CtxSGXDRAM) {
		return fmt.Errorf("platform: context cannot live in both eMRAM and protected DRAM")
	}
	if c.Generation == GenHaswell && (c.Techniques != 0 || c.CtxInEMRAM) {
		return fmt.Errorf("platform: ODRIPS techniques first shipped with Skylake; Haswell-ULT models baseline DRIPS only (§7)")
	}
	switch c.CoreFreqMHz {
	case 800, 1000, 1500:
	default:
		return fmt.Errorf("platform: unsupported core frequency %d MHz (800/1000/1500)", c.CoreFreqMHz)
	}
	switch c.DRAMMTps {
	case 1600, 1067, 800:
	default:
		return fmt.Errorf("platform: unsupported DRAM rate %d MT/s (1600/1067/800)", c.DRAMMTps)
	}
	if c.XtalFastPPB <= -1e9 || c.XtalSlowPPB <= -1e9 {
		return fmt.Errorf("platform: crystal error out of range")
	}
	if c.ExitReinitScale < 0 || c.LLCDirtyFraction < 0 || c.LLCDirtyFraction > 1 ||
		c.FETLeakageFraction < 0 || c.FETLeakageFraction > 1 {
		return fmt.Errorf("platform: ablation knob out of range")
	}
	if c.TDPWatts < 0 || (c.TDPWatts > 0 && (c.TDPWatts < 3 || c.TDPWatts > 95)) {
		return fmt.Errorf("platform: TDP %v W outside the Skylake 3.5-95 W band", c.TDPWatts)
	}
	return nil
}
