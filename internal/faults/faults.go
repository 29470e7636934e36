// Package faults defines seeded, schedule-deterministic fault-injection
// plans for the ODRIPS entry/exit flows. A Plan is pure data: a list of
// injections, each naming a fault kind, the connected-standby cycle it
// strikes, and — where the kind needs one — a flow-step index or an
// argument. The platform interprets the plan by scheduling each injection
// as an ordinary simulator event, so a given (config, workload, plan)
// triple replays byte-identically regardless of host parallelism; the plan
// carries no clocks, no randomness, and no callbacks of its own.
//
// Plans round-trip through a compact text grammar for CLI flags, fuzzing,
// and reproducers:
//
//	injection  = kind "@" cycle [ "." step ] [ ":" arg ]
//	plan       = injection { ";" injection }
//
// e.g. "wake@1.3;meefail@2:1;drift@0:250000" — a wake event at step 3 of
// cycle 1's entry flow, a persistent MEE integrity failure in cycle 2, and
// a +250 ppm slow-crystal drift excursion in cycle 0.
package faults

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Kind enumerates the injectable faults.
type Kind uint8

const (
	// WakeDuringEntry delivers an external wake at the start of entry flow
	// step Step, arming the platform's abortable-entry path: the in-flight
	// step completes, then the flow unwinds from the deepest already-safe
	// state and the idle period is retried.
	WakeDuringEntry Kind = iota
	// WakeDuringExit delivers an external wake at the start of exit flow
	// step Step. The chipset's one-shot wake latch is already set by the
	// wake that started the exit, so the event must be absorbed — the
	// injection exists to prove exactly that.
	WakeDuringExit
	// MEEFail forces a context-restore verification failure. Arg
	// ArgTransient fails the first restore attempt only (a soft ECC or bus
	// glitch: the retry succeeds); ArgPersistent corrupts the stored image
	// so every attempt fails and the platform degrades to
	// DRIPS-with-retention-SRAM.
	MEEFail
	// DRAMBitFlip flips one bit of the MEE-protected DRAM region during
	// the idle window. Arg is the bit offset into the region, reduced
	// modulo the region size at apply time, so any int64 targets a valid
	// bit of data or integrity metadata.
	DRAMBitFlip
	// TimerDrift retunes the slow (32.768 kHz) crystal by Arg parts per
	// billion during the idle window — a thermal excursion. The drift is
	// detected by the exit flow's Step cross-check and triggers
	// recalibration when it exceeds the budget threshold.
	TimerDrift
	// FETGlitch makes the AON-IO rail over/undershoot on re-power during
	// the exit flow's FET release: the PMU detects the bad level and
	// re-drives the FET, costing one extra slew window.
	FETGlitch

	kindCount
)

// MEEFail argument values.
const (
	ArgTransient  int64 = 0
	ArgPersistent int64 = 1
)

// Validation bounds. MaxDriftPPB keeps the retuned crystal far from zero
// frequency; MaxCycle and MaxStep bound parsed plans to plausible runs.
const (
	MaxCycle    = 1 << 20
	MaxStep     = 63
	MaxDriftPPB = 500_000_000
)

var kindNames = [...]string{"wake", "wakex", "meefail", "bitflip", "drift", "fetglitch"}

// String returns the grammar keyword of the kind.
func (k Kind) String() string {
	if int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// hasStep reports whether the kind addresses a flow step.
func (k Kind) hasStep() bool { return k == WakeDuringEntry || k == WakeDuringExit }

// hasArg reports whether the kind carries an argument.
func (k Kind) hasArg() bool { return k == MEEFail || k == DRAMBitFlip || k == TimerDrift }

// Injection is one planned fault. The zero Step/Arg are meaningful for the
// kinds that use them and must be zero for the kinds that do not, so that
// Injection values compare with ==.
type Injection struct {
	Kind  Kind
	Cycle int   // 0-based connected-standby cycle within the run
	Step  int   // flow-step index (Wake* kinds only)
	Arg   int64 // kind-specific argument (MEEFail, DRAMBitFlip, TimerDrift)
}

// String renders the injection in the plan grammar. Kinds with an argument
// always print it, so the rendering is canonical.
func (in Injection) String() string {
	var b strings.Builder
	b.WriteString(in.Kind.String())
	b.WriteByte('@')
	b.WriteString(strconv.Itoa(in.Cycle))
	if in.Kind.hasStep() {
		b.WriteByte('.')
		b.WriteString(strconv.Itoa(in.Step))
	}
	if in.Kind.hasArg() {
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(in.Arg, 10))
	}
	return b.String()
}

// Plan is an ordered list of injections. The zero Plan injects nothing and
// a platform running one behaves byte-identically to a platform with no
// plan installed at all.
type Plan struct {
	Injections []Injection
}

// String renders the plan in the grammar; Parse(p.String()) reproduces p
// exactly for any valid plan.
func (p Plan) String() string {
	parts := make([]string, len(p.Injections))
	for i, in := range p.Injections {
		parts[i] = in.String()
	}
	return strings.Join(parts, ";")
}

// ParseError reports a token the grammar rejects.
type ParseError struct {
	Token string // the offending injection token
	Msg   string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("faults: parse %q: %s", e.Token, e.Msg)
}

// ValidationError reports an injection outside the legal bounds.
type ValidationError struct {
	Index     int // position in Plan.Injections
	Injection Injection
	Msg       string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("faults: injection %d (%s): %s", e.Index, e.Injection, e.Msg)
}

// Parse decodes a plan from the grammar and validates it. Empty input (or
// input of only separators/whitespace) decodes to the empty plan.
func Parse(s string) (Plan, error) {
	var p Plan
	for _, tok := range strings.Split(s, ";") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		in, err := parseInjection(tok)
		if err != nil {
			return Plan{}, err
		}
		p.Injections = append(p.Injections, in)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

func parseInjection(tok string) (Injection, error) {
	kindStr, rest, ok := strings.Cut(tok, "@")
	if !ok {
		return Injection{}, &ParseError{Token: tok, Msg: "missing '@cycle'"}
	}
	var in Injection
	kind := -1
	for i, name := range kindNames {
		if kindStr == name {
			kind = i
			break
		}
	}
	if kind < 0 {
		return Injection{}, &ParseError{Token: tok, Msg: fmt.Sprintf("unknown kind %q", kindStr)}
	}
	in.Kind = Kind(kind)

	rest, argStr, hasArg := strings.Cut(rest, ":")
	cycleStr, stepStr, hasStep := strings.Cut(rest, ".")
	if hasArg && !in.Kind.hasArg() {
		return Injection{}, &ParseError{Token: tok, Msg: fmt.Sprintf("%s takes no ':arg'", in.Kind)}
	}
	if hasStep && !in.Kind.hasStep() {
		return Injection{}, &ParseError{Token: tok, Msg: fmt.Sprintf("%s takes no '.step'", in.Kind)}
	}

	cycle, err := strconv.Atoi(cycleStr)
	if err != nil {
		return Injection{}, &ParseError{Token: tok, Msg: fmt.Sprintf("bad cycle %q", cycleStr)}
	}
	in.Cycle = cycle
	if hasStep {
		step, err := strconv.Atoi(stepStr)
		if err != nil {
			return Injection{}, &ParseError{Token: tok, Msg: fmt.Sprintf("bad step %q", stepStr)}
		}
		in.Step = step
	}
	if hasArg {
		arg, err := strconv.ParseInt(argStr, 10, 64)
		if err != nil {
			return Injection{}, &ParseError{Token: tok, Msg: fmt.Sprintf("bad arg %q", argStr)}
		}
		in.Arg = arg
	}
	return in, nil
}

// Validate checks every injection against the kind-specific bounds.
func (p Plan) Validate() error {
	for i, in := range p.Injections {
		if err := in.validate(); err != nil {
			return &ValidationError{Index: i, Injection: in, Msg: err.Error()}
		}
	}
	return nil
}

func (in Injection) validate() error {
	if in.Kind >= kindCount {
		return fmt.Errorf("unknown kind %d", in.Kind)
	}
	if in.Cycle < 0 || in.Cycle > MaxCycle {
		return fmt.Errorf("cycle %d outside [0, %d]", in.Cycle, MaxCycle)
	}
	if in.Kind.hasStep() {
		if in.Step < 0 || in.Step > MaxStep {
			return fmt.Errorf("step %d outside [0, %d]", in.Step, MaxStep)
		}
	} else if in.Step != 0 {
		return fmt.Errorf("%s takes no step", in.Kind)
	}
	switch in.Kind {
	case MEEFail:
		if in.Arg != ArgTransient && in.Arg != ArgPersistent {
			return fmt.Errorf("arg %d not transient (%d) or persistent (%d)", in.Arg, ArgTransient, ArgPersistent)
		}
	case DRAMBitFlip:
		if in.Arg < 0 {
			return fmt.Errorf("negative bit offset %d", in.Arg)
		}
	case TimerDrift:
		if in.Arg < -MaxDriftPPB || in.Arg > MaxDriftPPB {
			return fmt.Errorf("drift %d ppb outside ±%d", in.Arg, MaxDriftPPB)
		}
	default:
		if in.Arg != 0 {
			return fmt.Errorf("%s takes no arg", in.Kind)
		}
	}
	return nil
}

// Random draws a valid plan of n injections from the given seeded source:
// cycles in [0, cycles), entry/exit step indices in [0, entrySteps) and
// [0, exitSteps). It is the generator behind the property harness; the
// caller logs the seed so any failure replays.
//
//odrips:allow testonly the plan generator the faults and faults/prop tests share; a _test.go file cannot export it across packages
func Random(rng *rand.Rand, n, cycles, entrySteps, exitSteps int) Plan {
	if cycles < 1 {
		cycles = 1
	}
	if entrySteps < 1 {
		entrySteps = 1
	}
	if exitSteps < 1 {
		exitSteps = 1
	}
	var p Plan
	for i := 0; i < n; i++ {
		in := Injection{
			Kind:  Kind(rng.Intn(int(kindCount))),
			Cycle: rng.Intn(cycles),
		}
		switch in.Kind {
		case WakeDuringEntry:
			in.Step = rng.Intn(entrySteps)
		case WakeDuringExit:
			in.Step = rng.Intn(exitSteps)
		case MEEFail:
			in.Arg = int64(rng.Intn(2))
		case DRAMBitFlip:
			in.Arg = rng.Int63n(1 << 30)
		case TimerDrift:
			// Large enough to trip the recalibration threshold about half
			// of the time, in either direction.
			in.Arg = int64(rng.Intn(2*MaxDriftPPB/1000)) - MaxDriftPPB/1000
		}
		p.Injections = append(p.Injections, in)
	}
	return p
}
