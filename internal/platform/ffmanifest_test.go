package platform

import (
	"reflect"
	"testing"

	"odrips/internal/aonio"
	"odrips/internal/chipset"
	"odrips/internal/clock"
	"odrips/internal/dram"
	"odrips/internal/fixedpoint"
	"odrips/internal/gpio"
	"odrips/internal/ltr"
	"odrips/internal/mee"
	"odrips/internal/pml"
	"odrips/internal/pmu"
	"odrips/internal/power"
	"odrips/internal/sram"
	"odrips/internal/timer"
)

// This file is the fast-forward fingerprint manifest (DESIGN.md §12): every
// field of every struct holding platform state must be classified as either
// serialized into the cycle-boundary fingerprint or excluded for a stated
// reason. TestFingerprintManifestExhaustive enforces the classification by
// reflection, so adding a field to any of these structs without deciding its
// memo treatment fails the build's test tier — the same spirit as the
// odrips-vet handle rule. Keys are reflect.Type.String() + "." + field name.

// ffFingerprinted lists the fields (p *Platform) ffBoundary serializes,
// directly or through an exact digest/accessor, or matches against the
// record windows.
var ffFingerprinted = map[string]bool{
	"platform.Platform.meter":       true, // per-component draws + efficiency bits
	"platform.Platform.xtal24":      true, // on, ppb, stabilizing bit; phase matched against windows
	"platform.Platform.xtal32":      true, // on, ppb, stabilizing bit; phase matched against windows
	"platform.Platform.ring":        true, // gated bit
	"platform.Platform.mem":         true, // power state + CKE
	"platform.Platform.procDom":     true, // gated bit
	"platform.Platform.mainTimer":   true, // running bit (value handled by lazy edge arithmetic)
	"platform.Platform.saSRAM":      true, // retention state
	"platform.Platform.computeSRAM": true, // retention state
	"platform.Platform.bootSRAM":    true, // retention state
	"platform.Platform.ltrTable":    true, // reports + relative timer deadlines
	"platform.Platform.eng":         true, // presence bit; see mee.Engine entries
	"platform.Platform.emram":       true, // length + content digest
	"platform.Platform.hub":         true, // see chipset.Hub entries
	"platform.Platform.state":       true, // power state at the boundary
	"platform.Platform.degraded":    true, // context-store degradation latch
	"platform.Platform.fplane":      true, // presence + see faultPlane entries

	"timer.FastCounter.running":        true,
	"timer.Unit.mode":                  true,
	"timer.Unit.switchFlag":            true,
	"timer.Unit.Fast":                  true, // running bit via FastCounter entries
	"timer.CalibrationResult.Step":     true, // raw fixed-point ratio
	"timer.CalibrationResult.FracBits": true,

	"ltr.Table.reports": true,
	"ltr.Table.timers":  true, // as deadlines relative to the boundary

	"gpio.Bank.pins":       true, // sorted per-pin FastForwardState
	"gpio.Pin.name":        true,
	"gpio.Pin.mode":        true,
	"gpio.Pin.level":       true,
	"gpio.Pin.pending":     true,
	"gpio.Pin.havePending": true,
	"gpio.Pin.sampler":     true, // by oscillator name

	"clock.Oscillator.on":       true,
	"clock.Oscillator.ppb":      true,
	"clock.Oscillator.stableAt": true, // as the phase relative to now, matched against record windows
	"clock.Domain.gated":        true,

	"chipset.Hub.hosting":     true,
	"chipset.Hub.wakeFired":   true,
	"chipset.Hub.unit":        true, // presence + timer.Unit entries
	"chipset.Hub.calibration": true, // presence + CalibrationResult entries
	"chipset.Hub.xtal24":      true, // via the oscillator entries
	"chipset.Hub.xtal32":      true,
	"chipset.Hub.dom24":       true, // gated bit
	"chipset.Hub.bank":        true, // via the gpio entries

	"power.Meter.components":     true, // count + per-component draws, in registration order
	"power.Meter.efficiency":     true, // exact float bits
	"power.Component.drawMW":     true,
	"power.Component.drawNW":     true,
	"power.Component.battDrawNW": true,

	"aonio.Ring.gated":  true,
	"dram.Module.state": true,
	"dram.Module.cke":   true,
	"sram.Array.state":  true,
}

// fastforward:excluded — fields deliberately not in the fingerprint, with
// the soundness reason. "gate:" reasons mean ffCycleEligible/ffLatchCycle
// refuses the memo unless the field is in its quiescent state, so the
// fingerprint never needs to distinguish values. "dead:" reasons mean the
// field is rewritten before its next read whenever a cycle starts from a
// boundary, so its boundary value cannot influence behavior.
var ffExcluded = map[string]string{
	// ---- platform.Platform ----
	"platform.Platform.cfg":             "immutable after New; the memo is per-platform, so identical by construction",
	"platform.Platform.bud":             "immutable calibrated budget table",
	"platform.Platform.sched":           "absolute simulation time is monotonic; every memoized quantity is a delta relative to the boundary, and replay advances the clock in bulk",
	"platform.Platform.fet":             "see aonio.FET entries; the gate level lives in the fingerprinted fet-control pin",
	"platform.Platform.bootFSM":         "dead: the boot image is saved by every entry before the exit unpacks it",
	"platform.Platform.linkP2C":         "links are idle at boundaries (queue-empty gate); see pml.Link entries",
	"platform.Platform.linkC2P":         "links are idle at boundaries (queue-empty gate); see pml.Link entries",
	"platform.Platform.cstates":         "immutable C-state table",
	"platform.Platform.ctxRegion":       "immutable protected-region bounds",
	"platform.Platform.ctxImage":        "immutable serialized context bytes (the template's)",
	"platform.Platform.ctxHash":         "immutable digest of ctxImage",
	"platform.Platform.saImage":         "immutable SA retention image (the template's)",
	"platform.Platform.cpImage":         "immutable compute retention image (the template's)",
	"platform.Platform.mcCfg":           "immutable memory-controller config image",
	"platform.Platform.pmuVec":          "immutable PMU vector image",
	"platform.Platform.restoreBuf":      "dead: scratch, fully rewritten by the next restore before any read",
	"platform.Platform.cCompute":        "pointer into meter; draws fingerprinted via power.Meter",
	"platform.Platform.cSA":             "pointer into meter; draws fingerprinted via power.Meter",
	"platform.Platform.cWake":           "pointer into meter; draws fingerprinted via power.Meter",
	"platform.Platform.cPMU":            "pointer into meter; draws fingerprinted via power.Meter",
	"platform.Platform.cChipsetAon":     "pointer into meter; draws fingerprinted via power.Meter",
	"platform.Platform.cMonitor":        "pointer into meter; draws fingerprinted via power.Meter",
	"platform.Platform.cMisc":           "pointer into meter; draws fingerprinted via power.Meter",
	"platform.Platform.cFET":            "pointer into meter; draws fingerprinted via power.Meter",
	"platform.Platform.cVRFixed":        "pointer into meter; draws fingerprinted via power.Meter",
	"platform.Platform.cVRAonIO":        "pointer into meter; draws fingerprinted via power.Meter",
	"platform.Platform.cVRSram":         "pointer into meter; draws fingerprinted via power.Meter",
	"platform.Platform.cVRPmu":          "pointer into meter; draws fingerprinted via power.Meter",
	"platform.Platform.computeActiveMW": "immutable derived constant",
	"platform.Platform.saActiveMW":      "immutable derived constant",
	"platform.Platform.saEntryMW":       "immutable derived constant",
	"platform.Platform.saExitMW":        "immutable derived constant",
	"platform.Platform.tracker":         "pure output accounting, replayed as exact deltas (open interval folded into the snapshot)",
	"platform.Platform.inFlow":          "gate: boundaries are outside flows",
	"platform.Platform.err":             "gate: must be nil for eligibility",
	"platform.Platform.flowStats":       "pure output accounting, replayed as exact deltas",
	"platform.Platform.wakeCount":       "pure output accounting, replayed as exact deltas",
	"platform.Platform.shallowCounts":   "pure output accounting, replayed as exact deltas",
	"platform.Platform.timerEpoch":      "immutable after New (drift baseline)",
	"platform.Platform.cycleDone":       "dead: flow continuation, installed per cycle before use",
	"platform.Platform.idleFor":         "dead: set per cycle before use",
	"platform.Platform.plan":            "dead: set per cycle before use",
	"platform.Platform.armedEv":         "gate: queue empty at boundaries, so no armed event exists",
	"platform.Platform.p2cContinue":     "gate: must be nil for eligibility",
	"platform.Platform.c2pContinue":     "gate: must be nil for eligibility",
	"platform.Platform.pendingWake":     "gate: must be nil for eligibility",
	"platform.Platform.quiesce":         "registered at run setup, executed at the final boundary; replay neither adds nor consumes entries",
	"platform.Platform.flowTrace":       "output ring; the replayed tail is synthesized from recorded steps",
	"platform.Platform.flowHead":        "output ring head; see flowTrace",
	"platform.Platform.cycleIdx":        "monotonic bookkeeping (fault matching); advanced by replay",
	"platform.Platform.wantAbort":       "gate: must be false for eligibility",
	"platform.Platform.abortWake":       "gate: must be nil for eligibility",
	"platform.Platform.entryStartE":     "dead: per-flow scratch, set at entry start before use",
	"platform.Platform.entryM":          "dead: per-flow scratch, set at entry start before use",
	"platform.Platform.emramHash":       "memoized digest of the fingerprinted emram content; every emram write installs or invalidates it",
	"platform.Platform.emramHashOK":     "validity flag of the memoized emram digest; see emramHash",
	"platform.Platform.ff":              "the memo's own bookkeeping; output-invariant by the replay contract (see ffState entries)",

	// ---- platform.ffState ----
	"platform.ffState.mode":        "selects memoization, never behavior; byte-identity across modes is the engine's invariant",
	"platform.ffState.cycleOK":     "latched eligibility, recomputed every boundary",
	"platform.ffState.memExposed":  "gate: only picks Layer 1's gate (an exposed module adds the queue-empty test, which every Layer-2 boundary passes anyway); op replay vs. real execution match by the Layer-1 contract",
	"platform.ffState.downEng":     "output-invariant: handle to the powered-down engine, used only to materialize the canonical bytes a replayed save left virtual",
	"platform.ffState.meePrimed":   "output-invariant: only selects op replay vs. real execution, which match by the Layer-1 contract",
	"platform.ffState.meeVirtual":  "output-invariant: replay conservatively marks the engine virtual, forcing materialization before any real op",
	"platform.ffState.bundle":      "the cycle memo itself, private or a plane's shared class bundle; a record replays only when the live fingerprint recurs and the live phases lie in its windows",
	"platform.ffState.ops":         "the op memo itself, private or a plane's shared table; a record replays only over the start state and geometry its key names, priced on the live DRAM",
	"platform.ffState.rec":         "in-progress recording bookkeeping",
	"platform.ffState.fpBuf":       "dead: serialization scratch",
	"platform.ffState.nomScratch":  "dead: replay scratch",
	"platform.ffState.battScratch": "dead: replay scratch",
	"platform.ffState.stats":       "diagnostics, not part of Result",

	// ---- platform.tracker (output accounting; see Platform.tracker) ----
	"platform.tracker.sched":     "reference",
	"platform.tracker.meter":     "reference",
	"platform.tracker.cur":       "mirrors the fingerprinted Platform.state",
	"platform.tracker.since":     "open-interval start; folded into the effective residency snapshot, and the interval is closed before replay advances time",
	"platform.tracker.last":      "open-interval energy baseline; folded into the effective energy snapshot",
	"platform.tracker.residency": "pure output, replayed as exact deltas",
	"platform.tracker.energy":    "pure output, replayed as exact deltas",
	"platform.tracker.idleByCmp": "pure output, replayed as exact deltas",

	// ---- platform.flowStats (outputs; see Platform.flowStats) ----
	"platform.flowStats.entries":     "pure output, replayed as exact deltas",
	"platform.flowStats.exits":       "pure output, replayed as exact deltas",
	"platform.flowStats.entryTotal":  "pure output, replayed as exact deltas",
	"platform.flowStats.exitTotal":   "pure output, replayed as exact deltas",
	"platform.flowStats.entryMax":    "pure output; a steady-state cycle's per-flow latency is constant, so the max is restored from the record",
	"platform.flowStats.exitMax":     "pure output; restored from the record",
	"platform.flowStats.ctxSaveLat":  "pure output; end value restored from the record",
	"platform.flowStats.ctxRestore":  "pure output; end value restored from the record",
	"platform.flowStats.ctxVerified": "pure output, replayed as exact deltas",

	// ---- platform.faultPlane ----
	"platform.faultPlane.plan":     "immutable injection schedule",
	"platform.faultPlane.fired":    "gate: any unfired injection disables the memo (ffFaultsClean)",
	"platform.faultPlane.stats":    "frozen once every injection has fired, which the gate requires",
	"platform.faultPlane.meeForce": "gate: disables the memo while armed",

	// ---- timer ----
	"timer.FastCounter.name":          "immutable",
	"timer.FastCounter.dom":           "reference; the domain's gate and source grid are fingerprinted",
	"timer.FastCounter.sched":         "reference",
	"timer.FastCounter.base":          "monotonic count; reads are lazy edge arithmetic over the fingerprinted grid, and replay rebases it surgically",
	"timer.FastCounter.anchor":        "monotonic anchor; rebased surgically on replay",
	"timer.SlowCounter.name":          "immutable",
	"timer.SlowCounter.osc":           "reference; the oscillator grid is fingerprinted",
	"timer.SlowCounter.sched":         "reference",
	"timer.SlowCounter.acc":           "dead: re-seeded from the fast counter at every hand-over; boundaries are in fast mode (Unit.mode is fingerprinted)",
	"timer.SlowCounter.step":          "set from the fingerprinted calibration Step",
	"timer.SlowCounter.anchor":        "dead: re-anchored at every hand-over",
	"timer.SlowCounter.running":       "false at boundaries; implied by the fingerprinted Unit.mode",
	"timer.Unit.sched":                "reference",
	"timer.Unit.fastDom":              "reference; gate and grid fingerprinted",
	"timer.Unit.slowOsc":              "reference; grid fingerprinted",
	"timer.Unit.Slow":                 "see SlowCounter entries",
	"timer.Unit.Trace":                "gate: cycles with a trace hook installed are ineligible (fig3b observes edges)",
	"timer.CalibrationResult.NFast":   "immutable measurement record",
	"timer.CalibrationResult.NSlow":   "immutable measurement record",
	"timer.CalibrationResult.Window":  "immutable measurement record",
	"timer.CalibrationResult.IntBits": "immutable measurement record",

	// ---- fixedpoint.Acc (the slow counter's accumulator) ----
	"fixedpoint.Acc.Int":      "dead: re-seeded at every hand-over",
	"fixedpoint.Acc.frac":     "dead: re-seeded at every hand-over",
	"fixedpoint.Acc.FracBits": "set from the fingerprinted calibration FracBits",

	// ---- mee.Engine ----
	"mee.Engine.mem":         "reference; DRAM power state is fingerprinted, content is covered by the version-invariance argument (§12)",
	"mee.Engine.layout":      "immutable tree geometry",
	"mee.Engine.masterKey":   "immutable key material",
	"mee.Engine.aesBlock":    "immutable derived cipher",
	"mee.Engine.rootCounter": "monotonic version; affects only stored MAC bytes, never traffic or latency (§12); advanced surgically on replay",
	"mee.Engine.cache":       "deterministic function of the op history from canonical state; rebuilt exactly by ReplayMaterialize/ReplayWarm before any real op",
	"mee.Engine.stats":       "diagnostics, not part of Result",
	"mee.Engine.mac":         "dead: per-op scratch",
	"mee.Engine.u64Buf":      "dead: per-op scratch",
	"mee.Engine.ctrBuf":      "dead: per-op scratch",
	"mee.Engine.ksBuf":       "dead: per-op scratch",
	"mee.Engine.ctBuf":       "dead: per-op scratch",
	"mee.Engine.padBuf":      "dead: per-op scratch",
	"mee.Engine.metaBuf":     "dead: per-op scratch",
	"mee.Engine.pathBuf":     "dead: per-op scratch",
	"mee.Engine.victimBuf":   "dead: per-op scratch",
	"mee.Engine.walk":        "dead: per-op scratch",
	"mee.Engine.readPath":    "dead: invalidated by cache generation on every materialization",
	"mee.Engine.noWalk":      "test hook, never set by the platform",

	// ---- ltr ----
	"ltr.Table.sched": "reference",

	// ---- gpio ----
	"gpio.Bank.sched":      "reference",
	"gpio.Pin.sampleEvent": "gate: queue empty at boundaries, so no armed sample exists",
	"gpio.Pin.sched":       "reference",
	"gpio.Pin.onEdge":      "immutable wiring",

	// ---- clock ----
	"clock.Oscillator.name":      "immutable",
	"clock.Oscillator.nominalHz": "immutable",
	"clock.Oscillator.startup":   "immutable",
	"clock.Oscillator.sched":     "reference",
	"clock.Oscillator.denom":     "derived from the fingerprinted nominalHz and ppb",
	"clock.Oscillator.OnPower":   "immutable wiring",
	"clock.Oscillator.epoch":     "grid identity counter, read only to detect a moved grid inside a recording",
	"clock.Oscillator.win":       "in-progress phase-window recording bookkeeping",
	"clock.Domain.name":          "immutable",
	"clock.Domain.src":           "reference; the source grid is fingerprinted",
	"clock.Domain.OnGate":        "immutable wiring",

	// ---- chipset.Hub ----
	"chipset.Hub.sched":      "reference",
	"chipset.Hub.fetPin":     "fingerprinted through the bank's pin walk",
	"chipset.Hub.thermalPin": "fingerprinted through the bank's pin walk",
	"chipset.Hub.fet":        "see aonio.FET entries",
	"chipset.Hub.OnWake":     "immutable wiring",
	"chipset.Hub.wakeEv":     "gate: queue empty at boundaries, so no armed wake exists",
	"chipset.Hub.wakes":      "pure output accounting, replayed as exact deltas",

	// ---- power ----
	"power.Meter.sched":         "reference",
	"power.Meter.byName":        "immutable registry (structure fixed at New; draws fingerprinted via components)",
	"power.Component.name":      "immutable",
	"power.Component.group":     "immutable",
	"power.Component.supply":    "immutable",
	"power.Component.battStale": "dead: lazy-derivation flag; every read of battDrawNW (settle, DrawsNW) refreshes through battDraw first",
	"power.Component.eff":       "mirror of Meter.efficiency, which is fingerprinted",
	"power.Component.nominal":   "pure output, replayed as exact deltas",
	"power.Component.battery":   "pure output, replayed as exact deltas",
	"power.Component.changedAt": "SettleAll at the boundary pins it to now, so it is a constant offset from the boundary",

	// ---- aonio ----
	"aonio.FET.ring":            "reference; the ring gate is fingerprinted",
	"aonio.FET.LeakageFraction": "immutable after New",
	"aonio.Ring.draws":          "immutable registered loads",
	"aonio.Ring.OnDraw":         "immutable wiring",

	// ---- sram ----
	"sram.Array.name":    "immutable",
	"sram.Array.process": "immutable",
	"sram.Array.size":    "immutable",
	"sram.Array.data":    "dead: every entry rewrites the retained image in full before the exit reads it",
	"sram.Array.valid":   "dead: set by the entry's write before the exit reads",
	"sram.Array.dirty":   "dead: bounds the bytes written since the last power loss; only Off's clear reads it, and a clear leaves the same all-zero bytes whatever it covers",
	"sram.Array.OnDraw":  "immutable wiring",

	// ---- dram ----
	"dram.Module.cfg":      "immutable",
	"dram.Module.blocks":   "versioned ciphertext whose observable effects are version-invariant (§12); canonical bytes are rebuilt by ReplayMaterialize before any real read",
	"dram.Module.base":     "the template's formatted MEE tree, identical for every platform of a template and never written; excluded like blocks, whose reads fall through to it",
	"dram.Module.baseAddr": "set with base, from the constant region geometry; see dram.Module.base",
	"dram.Module.spare":    "dead: unclaimed allocation the overlay carves blocks from; never read before it is carved and fully written",
	"dram.Module.OnDraw":   "immutable wiring",

	// ---- pml ----
	"pml.Link.sched":         "reference",
	"pml.Link.dom":           "reference; gate and grid fingerprinted",
	"pml.Link.latencyCycles": "immutable",
	"pml.Link.Powered":       "immutable wiring",
	"pml.Link.OnDeliver":     "immutable wiring",

	// ---- pmu ----
	"pmu.BootFSM.SRAM": "reference; the array's state is fingerprinted and its content is dead at boundaries",
}

// ffManifestTypes enumerates every struct the manifest must cover: the
// platform and all components whose mutable state can influence a cycle.
func ffManifestTypes() []reflect.Type {
	return []reflect.Type{
		reflect.TypeOf((*Platform)(nil)).Elem(),
		reflect.TypeOf((*ffState)(nil)).Elem(),
		reflect.TypeOf((*tracker)(nil)).Elem(),
		reflect.TypeOf((*flowStats)(nil)).Elem(),
		reflect.TypeOf((*faultPlane)(nil)).Elem(),
		reflect.TypeOf((*timer.FastCounter)(nil)).Elem(),
		reflect.TypeOf((*timer.SlowCounter)(nil)).Elem(),
		reflect.TypeOf((*timer.Unit)(nil)).Elem(),
		reflect.TypeOf((*timer.CalibrationResult)(nil)).Elem(),
		reflect.TypeOf((*fixedpoint.Acc)(nil)).Elem(),
		reflect.TypeOf((*mee.Engine)(nil)).Elem(),
		reflect.TypeOf((*ltr.Table)(nil)).Elem(),
		reflect.TypeOf((*gpio.Bank)(nil)).Elem(),
		reflect.TypeOf((*gpio.Pin)(nil)).Elem(),
		reflect.TypeOf((*clock.Oscillator)(nil)).Elem(),
		reflect.TypeOf((*clock.Domain)(nil)).Elem(),
		reflect.TypeOf((*chipset.Hub)(nil)).Elem(),
		reflect.TypeOf((*power.Meter)(nil)).Elem(),
		reflect.TypeOf((*power.Component)(nil)).Elem(),
		reflect.TypeOf((*aonio.FET)(nil)).Elem(),
		reflect.TypeOf((*aonio.Ring)(nil)).Elem(),
		reflect.TypeOf((*sram.Array)(nil)).Elem(),
		reflect.TypeOf((*dram.Module)(nil)).Elem(),
		reflect.TypeOf((*pml.Link)(nil)).Elem(),
		reflect.TypeOf((*pmu.BootFSM)(nil)).Elem(),
	}
}

// TestFingerprintManifestExhaustive fails when any field of the registered
// state structs is neither fingerprinted nor explicitly excluded — or when
// the manifest carries stale or contradictory entries.
func TestFingerprintManifestExhaustive(t *testing.T) {
	seen := map[string]bool{}
	for _, typ := range ffManifestTypes() {
		name := typ.String()
		for i := 0; i < typ.NumField(); i++ {
			key := name + "." + typ.Field(i).Name
			if seen[key] {
				t.Errorf("duplicate field key %s (embedded type registered twice?)", key)
			}
			seen[key] = true
			in := ffFingerprinted[key]
			reason, ex := ffExcluded[key]
			switch {
			case in && ex:
				t.Errorf("%s is both fingerprinted and excluded", key)
			case !in && !ex:
				t.Errorf("%s is not classified: add it to the fingerprint or to the exclusion manifest with a reason", key)
			case ex && reason == "":
				t.Errorf("%s is excluded without a reason", key)
			}
		}
	}
	for key := range ffFingerprinted {
		if !seen[key] {
			t.Errorf("stale fingerprint manifest entry %s", key)
		}
	}
	for key := range ffExcluded {
		if !seen[key] {
			t.Errorf("stale exclusion manifest entry %s", key)
		}
	}
}
