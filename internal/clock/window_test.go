package clock

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"math/big"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"odrips/internal/sim"
)

// obsOp is one observation of a grid, at an instant relative to the
// boundary t0. Answers are recorded relative to t0 as well, so two
// oscillators at different absolute times compare directly. Edge indices
// come from NextEdge, as everywhere in the platform: an absolute index
// from elsewhere would observe the epoch's exact age, which no window
// records.
type obsOp struct {
	kind  int // 0 NextEdge, 1 EdgeTime(last k + n), 2 EdgesBetween, 3 Stable, 4 Retune, 5 power cycle
	d1    sim.Duration
	d2    sim.Duration
	n     uint64
	tuned int64
}

// observe runs the script against an oscillator whose scheduler sits at
// t0 and returns every answer relative to t0.
func observe(o *Oscillator, t0 sim.Time, ops []obsOp) []int64 {
	var out []int64
	var k uint64
	haveK := false
	for _, op := range ops {
		switch op.kind {
		case 0:
			kk, at, ok := o.NextEdge(t0.Add(op.d1))
			if ok {
				k, haveK = kk, true
				out = append(out, int64(at.Sub(t0)))
			} else {
				out = append(out, math.MinInt64)
			}
		case 1:
			if haveK {
				out = append(out, int64(o.EdgeTime(k+op.n).Sub(t0)))
			}
		case 2:
			out = append(out, int64(o.EdgesBetween(t0.Add(op.d1), t0.Add(op.d2))))
		case 3:
			if o.Stable() {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
		case 4:
			o.Retune(op.tuned)
			haveK = false
		case 5:
			o.PowerOff()
			o.PowerOn()
			haveK = false
		}
	}
	return out
}

// oscAt builds an oscillator whose scheduler sits at t0 and whose epoch
// has the given age there.
func oscAt(hz uint64, ppb int64, t0 sim.Time, age sim.Duration) *Oscillator {
	s := sim.NewScheduler()
	s.AdvanceTo(t0)
	o := NewOscillator(s, "x", hz, ppb, 3*sim.Microsecond)
	o.PowerOn()
	o.ReplayRebase(t0.Add(-age))
	return o
}

// ageFor returns the smallest epoch age in [lo, hi) whose residue is r
// (the largest, when top is set), if r is reachable (a multiple of
// gcd(denom, 1e21)).
func ageFor(o *Oscillator, r *big.Int, lo, hi sim.Duration, top bool) (sim.Duration, bool) {
	p := psPerSecondTimesBillion
	g := new(big.Int).GCD(nil, nil, o.denom, p)
	if new(big.Int).Mod(r, g).Sign() != 0 {
		return 0, false
	}
	m := new(big.Int).Quo(p, g) // the residue sequence's period in ps
	inv := new(big.Int).ModInverse(new(big.Int).Quo(o.denom, g), m)
	a := new(big.Int).Quo(r, g)
	a.Mul(a, inv).Mod(a, m) // smallest non-negative age with residue r
	// Shift by whole periods into [lo, hi).
	base := big.NewInt(int64(lo))
	steps := new(big.Int).Sub(base, a)
	if steps.Sign() > 0 {
		steps.Add(steps, new(big.Int).Sub(m, bigOne))
		steps.Quo(steps, m)
	} else {
		steps.Quo(steps, m) // truncates toward zero: still >= lo
	}
	a.Add(a, steps.Mul(steps, m))
	if top {
		// Climb by whole periods while the next still fits below hi.
		room := new(big.Int).Sub(big.NewInt(int64(hi)-1), a)
		if room.Sign() > 0 {
			a.Add(a, room.Sub(room, new(big.Int).Mod(room, m)))
		}
	}
	if !a.IsInt64() || a.Int64() < int64(lo) || a.Int64() >= int64(hi) {
		return 0, false
	}
	return sim.Duration(a.Int64()), true
}

func residueInt(r Residue) *big.Int {
	n := new(big.Int).SetUint64(r.Hi)
	n.Lsh(n, 64)
	return n.Or(n, new(big.Int).SetUint64(r.Lo))
}

// TestPhaseWindowSound is the window's contract: every phase inside a
// recorded window reproduces every observation exactly, and the nearest
// reachable residue past a bound that some observation set changes at
// least one answer.
func TestPhaseWindowSound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	t0 := sim.Time(400 * sim.Second)
	inside, outside := 0, 0
	for trial := 0; trial < 300; trial++ {
		hz := []uint64{24_000_000, 32_768}[trial%2]
		ppb := int64(rng.Intn(20_001) - 10_000)
		if trial%3 == 0 {
			ppb = 0 // residues repeat within microseconds: probes reach the age bounds
		}
		period := sim.Duration(1e12 / float64(hz))
		age := sim.Duration(rng.Int63n(int64(5 * sim.Second)))
		if trial%7 == 0 {
			age = -sim.Duration(rng.Int63n(int64(period))) // still stabilizing
		}
		var ops []obsOp
		if trial%5 == 0 {
			ops = append(ops, obsOp{kind: 3})
		}
		for i := 0; i < 1+rng.Intn(6); i++ {
			d := sim.Duration(rng.Int63n(int64(20 * period)))
			switch rng.Intn(5) {
			case 0, 1:
				ops = append(ops, obsOp{kind: 0, d1: d}, obsOp{kind: 1, n: uint64(rng.Intn(40))})
			case 2:
				back := -sim.Duration(rng.Int63n(int64(3 * period)))
				ops = append(ops, obsOp{kind: 2, d1: back, d2: d})
			case 3:
				ops = append(ops, obsOp{kind: 2, d1: d / 2, d2: d})
			case 4:
				ops = append(ops, obsOp{kind: 1, n: uint64(rng.Intn(1000))})
			}
		}
		switch trial % 11 {
		case 3:
			ops = append(ops, obsOp{kind: 4, tuned: ppb + 500}, obsOp{kind: 0, d1: 2 * period}, obsOp{kind: 1, n: 3})
		case 6:
			ops = append(ops, obsOp{kind: 5}, obsOp{kind: 0, d1: period}, obsOp{kind: 1, n: 1})
		}

		o := oscAt(hz, ppb, t0, age)
		o.BeginWindow()
		want := observe(o, t0, ops)
		w := o.EndWindow()
		if ph := oscAt(hz, ppb, t0, age).PhaseAt(t0); !w.Holds(ph) {
			t.Fatalf("trial %d: window %+v excludes its own boundary phase %+v", trial, w, ph)
		}

		lo, hi := residueInt(w.Lo), residueInt(w.Hi)
		ageLo, ageHi := max(w.AgeLo, -5*sim.Second), min(w.AgeHi, 100_000*sim.Second)
		probe := oscAt(hz, ppb, t0, 0)
		g := new(big.Int).GCD(nil, nil, probe.denom, psPerSecondTimesBillion)
		span := new(big.Int).Sub(hi, lo)
		for j := 0; j < 4; j++ {
			r := new(big.Int).Rand(rng, span)
			r.Add(r, lo)
			r.Sub(r, new(big.Int).Mod(r, g)) // round down to reachable
			if r.Cmp(lo) < 0 {
				r.Add(r, g)
			}
			switch j {
			case 0: // the first reachable residue of the window
				r.Set(lo)
				if m := new(big.Int).Mod(r, g); m.Sign() != 0 {
					r.Add(r, new(big.Int).Sub(g, m))
				}
			case 1: // the last
				r.Sub(hi, bigOne)
				r.Sub(r, new(big.Int).Mod(r, g))
			}
			if r.Cmp(hi) >= 0 {
				continue
			}
			a, ok := ageFor(probe, r, ageLo, ageHi, j == 3)
			if !ok {
				continue
			}
			if got := observe(oscAt(hz, ppb, t0, a), t0, ops); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: age %v (residue %v in window [%v,%v)) answers %v, boundary age %v answered %v",
					trial, a, r, lo, hi, got, age, want)
			}
			inside++
		}
		// Just past the upper bound, when an observation the script
		// reports (not the residue range, nor a retune's or power-on's
		// own anchoring reads) set it.
		if hi.Cmp(psPerSecondTimesBillion) < 0 && w.AgeHi == math.MaxInt64 && trial%11 != 3 && trial%11 != 6 {
			r := new(big.Int).Set(hi)
			if m := new(big.Int).Mod(r, g); m.Sign() != 0 {
				r.Add(r, new(big.Int).Sub(g, m))
			}
			if a, ok := ageFor(probe, r, max(ageLo, 0), ageHi, false); ok {
				if got := observe(oscAt(hz, ppb, t0, a), t0, ops); reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: residue %v past the window [%v,%v) still answers %v", trial, r, lo, hi, got)
				}
				outside++
			}
		}
	}
	if inside < 300 || outside < 50 {
		t.Fatalf("too few probes: %d inside, %d outside", inside, outside)
	}
}

// TestPhaseResidueExact pins the word arithmetic of the phase residue
// against big.Int.
func TestPhaseResidueExact(t *testing.T) {
	s := sim.NewScheduler()
	ages := []int64{0, 1, -1, 7, -123456789, 1 << 40, -(1 << 45), 30150500000000, math.MaxInt64, math.MinInt64 + 1, math.MinInt64}
	for _, hz := range []uint64{24_000_000, 32_768, 1} {
		for _, ppb := range []int64{0, 1, -4100, 2300, 999_999, -999_999_999} {
			o := NewOscillator(s, "x", hz, ppb, 0)
			for _, age := range ages {
				n := new(big.Int).SetInt64(age)
				n.Mul(n, o.denom)
				n.Mod(n, psPerSecondTimesBillion)
				if got, want := o.PhaseAtAge(sim.Duration(age)).Res, residueOf(n); got != want {
					t.Fatalf("hz %d ppb %d age %d: residue %v, want %v", hz, ppb, age, got, want)
				}
			}
			w := o.Walk(30 * sim.Second)
			ph := o.PhaseAtAge(-sim.Second)
			for i := 0; i < 50; i++ {
				ph = w.Next(ph)
				if want := o.PhaseAtAge(ph.Age); ph != want {
					t.Fatalf("hz %d ppb %d: walk reached %v, want %v", hz, ppb, ph, want)
				}
			}
		}
	}
}

// oscillatorMethods classifies every exported method of *Oscillator by
// how it touches the epoch (stableAt and denom). A method added without
// a class fails TestOscillatorEpochManifest.
var oscillatorMethods = map[string]string{
	"Name": "epoch-free", "NominalHz": "epoch-free", "PPB": "epoch-free",
	"ActualHz": "epoch-free", "PeriodPs": "epoch-free", "On": "epoch-free",
	"PowerOff": "epoch-free",
	"Epoch":    "epoch-free: an identity counter, not a position",
	"Walk":     "epoch-free: the advance depends on the tuning only",

	"Stable":          "recorded: age comparison",
	"NextEdge":        "recorded: age comparison and ceil-division remainder",
	"EdgeTime":        "recorded: floor-division remainder",
	"EdgesBetween":    "recorded: age comparisons and floor-division remainders",
	"ScheduleEdge":    "recorded: through NextEdge",
	"ScheduleNthEdge": "recorded: through NextEdge and EdgeTime",
	"EpochOffset":     "recorded: pins the exact age",

	"PowerOn": "writer: new epoch at now+startup",
	"Retune":  "writer: new epoch; pins the age unless re-anchored at a recorded edge",

	"PhaseAt":      "unrecorded reader: boundary matching, restricted",
	"PhaseAtAge":   "unrecorded reader: boundary prediction, restricted",
	"ReplayRebase": "replay writer, restricted",
	"BeginWindow":  "window recording, restricted",
	"EndWindow":    "window recording, restricted",
}

// restrictedCallers lists the only non-test files outside this package
// allowed to call the restricted methods: the cycle-replay layer, which
// reads phases at boundaries (outside any recorded span) and rebases
// grids it replayed over.
var restrictedCallers = map[string]bool{"internal/platform/ffcycle.go": true}

// TestOscillatorEpochManifest pins internal/clock as the only reader of
// an oscillator's epoch: every exported method is classified, and the
// unrecorded readers and the replay writer are called from nowhere but
// the cycle-replay layer.
func TestOscillatorEpochManifest(t *testing.T) {
	typ := reflect.TypeOf((*Oscillator)(nil))
	for i := 0; i < typ.NumMethod(); i++ {
		if name := typ.Method(i).Name; oscillatorMethods[name] == "" {
			t.Errorf("(*Oscillator).%s is not classified in oscillatorMethods", name)
		}
	}
	for name := range oscillatorMethods {
		if _, ok := typ.MethodByName(name); !ok {
			t.Errorf("stale oscillatorMethods entry %s", name)
		}
	}

	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	calls := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() && path != root {
			if strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || d.Name() == "testdata" || rel == "internal/clock" {
				return filepath.SkipDir
			}
			return nil
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !strings.HasPrefix(oscillatorMethods[sel.Sel.Name], "unrecorded") && !strings.HasSuffix(oscillatorMethods[sel.Sel.Name], "restricted") {
				return true
			}
			calls++
			if !restrictedCallers[rel] {
				t.Errorf("%s: %s called outside the cycle-replay layer", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("found no call of a restricted method: the source walk is broken")
	}
}
