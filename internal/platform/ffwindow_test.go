package platform

import (
	"math/big"
	"reflect"
	"testing"

	"odrips/internal/clock"
	"odrips/internal/sim"
	"odrips/internal/workload"
)

// windowConfigs are the configurations the phase-window tests run: ODRIPS
// (the 32 kHz grid is observable and the fast crystal re-anchors every
// exit) and the baseline (the fast crystal runs through every cycle),
// each at the slow-crystal drifts a fleet spreads over.
func windowConfigs() map[string]Config {
	out := make(map[string]Config)
	for name, base := range map[string]Config{"odrips": ODRIPSConfig(), "baseline": DefaultConfig()} {
		for _, drift := range []int64{0, 40, 80} {
			cfg := base
			cfg.XtalSlowPPB += drift
			out[name+"/"+map[int64]string{0: "+0ppb", 40: "+40ppb", 80: "+80ppb"}[drift]] = cfg
		}
	}
	return out
}

// TestCycleRecordsBoundedOverHorizon: steady-state bodies recur, so a
// 30-day run records no more than twice what a 6-hour run does.
func TestCycleRecordsBoundedOverHorizon(t *testing.T) {
	for name, cfg := range windowConfigs() {
		t.Run(name, func(t *testing.T) {
			stats := func(n int) FFStats {
				p, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := p.RunCycles(workload.Fixed(n, 0, 30*sim.Second)); err != nil {
					t.Fatal(err)
				}
				return p.FFStats()
			}
			short, long := stats(720), stats(30*2880)
			t.Logf("6 h: %d recorded, %d replayed; 30 d: %d recorded, %d replayed",
				short.CyclesRecorded, short.CyclesReplayed, long.CyclesRecorded, long.CyclesReplayed)
			if short.CyclesRecorded == 0 || long.CyclesRecorded > 2*short.CyclesRecorded {
				t.Fatalf("30 days recorded %d records, 6 h %d: want at most twice", long.CyclesRecorded, short.CyclesRecorded)
			}
			if long.CyclesRecorded+long.CyclesReplayed != 30*2880 {
				t.Fatalf("30 days covered %d cycles", long.CyclesRecorded+long.CyclesReplayed)
			}
		})
	}
}

// moveOff returns w shifted by its own width, so it no longer holds the
// phases it was recorded at: above them if there is room below the
// residue modulus, below them otherwise.
func moveOff(w clock.Window) clock.Window {
	toInt := func(r clock.Residue) *big.Int {
		n := new(big.Int).SetUint64(r.Hi)
		return n.Lsh(n, 64).Or(n, new(big.Int).SetUint64(r.Lo))
	}
	toRes := func(n *big.Int) clock.Residue {
		lo := new(big.Int).And(n, new(big.Int).SetUint64(^uint64(0)))
		return clock.Residue{Hi: new(big.Int).Rsh(n, 64).Uint64(), Lo: lo.Uint64()}
	}
	lo, hi := toInt(w.Lo), toInt(w.Hi)
	width := new(big.Int).Sub(hi, lo)
	if limit := new(big.Int).Exp(big.NewInt(10), big.NewInt(21), nil); new(big.Int).Add(hi, width).Cmp(limit) <= 0 {
		w.Lo, w.Hi = w.Hi, toRes(new(big.Int).Add(hi, width))
	} else {
		w.Lo, w.Hi = toRes(new(big.Int).Sub(lo, width)), w.Lo
	}
	return w
}

// TestCycleWindowMissFailSafe: a record whose windows are moved off the
// live phases must miss, simulate and give a byte-identical result; the
// same records with their own windows replay everything.
func TestCycleWindowMissFailSafe(t *testing.T) {
	for _, name := range []string{"odrips/+40ppb", "baseline/+0ppb"} {
		cfg := windowConfigs()[name]
		t.Run(name, func(t *testing.T) {
			cycles := workload.Fixed(60, 0, 30*sim.Second)
			plane := NewMemoPlane(nil, 0)
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			plane.Attach(p)
			want, err := p.RunCycles(cycles)
			if err != nil {
				t.Fatal(err)
			}
			own := p.FFStats()
			recs := plane.acquire(MemoClassKey(cfg)).records

			moved := make(ffRecords)
			for k, list := range recs {
				out := make([]*cycleRecord, len(list))
				for i, cr := range list {
					c := *cr
					c.win = [2]clock.Window{moveOff(cr.win[0]), moveOff(cr.win[1])}
					out[i] = &c
				}
				moved[k] = out
			}

			// run attaches a fresh plane whose class holds seed.
			run := func(seed ffRecords) (Result, FFStats) {
				fresh := NewMemoPlane(nil, 0)
				fresh.acquire(MemoClassKey(cfg)).adopt(seed)
				p, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				fresh.Attach(p)
				res, err := p.RunCycles(cycles)
				if err != nil {
					t.Fatal(err)
				}
				return res, p.FFStats()
			}
			got, st := run(moved)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("moved windows changed the result:\n got %+v\nwant %+v", got, want)
			}
			if st.CyclesRecorded != own.CyclesRecorded || st.CyclesReplayed != own.CyclesReplayed {
				t.Fatalf("moved windows: %d recorded, %d replayed; a run with no records: %d, %d",
					st.CyclesRecorded, st.CyclesReplayed, own.CyclesRecorded, own.CyclesReplayed)
			}
			got, st = run(recs)
			if !reflect.DeepEqual(got, want) || st.CyclesRecorded != 0 || st.CyclesReplayed != uint64(len(cycles)) {
				t.Fatalf("own windows: %d recorded, %d replayed, equal %v", st.CyclesRecorded, st.CyclesReplayed, reflect.DeepEqual(got, want))
			}
		})
	}
}
