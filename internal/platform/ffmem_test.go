package platform

import (
	"crypto/sha256"
	"reflect"
	"strings"
	"testing"

	"odrips/internal/dram"
	"odrips/internal/sim"
	"odrips/internal/workload"
)

// This file covers Mem(), the one way anything outside the platform
// reaches DRAM and therefore the escape hatch of MEE op replay
// (DESIGN.md §12): whatever the mode, a caller must see the bytes a full
// simulation would have left, and tampering with them must be caught.

// TestMemBytesIdenticalAcrossFastForward reads the context region through
// Mem() after a run in which op and cycle replay left the ciphertext
// virtual; the bytes must be the ones full simulation wrote. A caller that
// took the module before the run and holds it across the run must read
// the same bytes.
func TestMemBytesIdenticalAcrossFastForward(t *testing.T) {
	var want [32]byte
	for _, mode := range []FFMode{FFOff, FFOn, FFVerify} {
		for _, held := range []bool{false, true} {
			p, err := New(ODRIPSConfig())
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if err := p.SetFastForward(mode); err != nil {
				t.Fatalf("SetFastForward: %v", err)
			}
			var mem *dram.Module
			if held {
				mem = p.Mem()
			}
			if _, err := p.RunCycles(workload.Fixed(6, 0, 30*sim.Second)); err != nil {
				t.Fatalf("RunCycles(%v): %v", mode, err)
			}
			if !held {
				mem = p.Mem()
			}
			region := p.CtxRegion()
			b, err := mem.Read(region.Base, int(region.Size))
			if err != nil {
				t.Fatalf("%v: read context region: %v", mode, err)
			}
			if st := p.FFStats(); mode == FFOn && st.MEEOpsReplayed+st.CyclesReplayed == 0 {
				t.Fatalf("FFOn (held %v) replayed nothing; the test no longer exercises virtual bytes", held)
			}
			sum := sha256.Sum256(b)
			if mode == FFOff && !held {
				want = sum
			} else if sum != want {
				t.Errorf("context region under %v (held %v): sha256 %x…, want %x… (off)", mode, held, sum[:4], want[:4])
			}
		}
	}
}

// tamperAttacks are the three attacks of examples/tamper-detection, each
// waking the DRAM behind the platform's back, rewriting the protected
// region through Mem(), and putting the module back into self-refresh.
var tamperAttacks = []struct {
	name   string
	attack func(p *Platform, mem *dram.Module) error
}{
	{"ciphertext-bit-flip", func(p *Platform, mem *dram.Module) error {
		addr := p.CtxRegion().Base + 17*dram.BlockSize
		blk, err := mem.Read(addr, dram.BlockSize)
		if err != nil {
			return err
		}
		blk[0] ^= 0x01
		return mem.Write(addr, blk)
	}},
	{"counter-tree-metadata", func(p *Platform, mem *dram.Module) error {
		addr := p.CtxRegion().End() - 2*dram.BlockSize
		blk, err := mem.Read(addr, dram.BlockSize)
		if err != nil {
			return err
		}
		blk[33] ^= 0xFF
		return mem.Write(addr, blk)
	}},
	{"full-region-rollback", func(p *Platform, mem *dram.Module) error {
		region := p.CtxRegion()
		snap, err := mem.Read(region.Base, int(region.Size))
		if err != nil {
			return err
		}
		for i := len(snap) - 4*dram.BlockSize; i < len(snap); i++ {
			snap[i] = 0
		}
		return mem.Write(region.Base, snap)
	}},
}

// TestTamperInLateCycleDetectedInEveryMode strikes deep into a run, after
// op replay has engaged under FFOn and left the region virtual: the
// attack's Mem() call must materialize the bytes and force the next
// restore to run for real, so every mode reports the integrity violation.
func TestTamperInLateCycleDetectedInEveryMode(t *testing.T) {
	for _, tc := range tamperAttacks {
		name, attack := tc.name, tc.attack
		for _, at := range []sim.Duration{100 * sim.Second, 160 * sim.Second} {
			for _, mode := range []FFMode{FFOff, FFOn, FFVerify} {
				p, err := New(ODRIPSConfig())
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				if err := p.SetFastForward(mode); err != nil {
					t.Fatalf("SetFastForward: %v", err)
				}
				p.Scheduler().At(p.Scheduler().Now().Add(at), "test.attack", func() {
					mem := p.Mem()
					if err := mem.SetState(dram.Active); err != nil {
						t.Errorf("%s: wake DRAM: %v", name, err)
						return
					}
					if err := attack(p, mem); err != nil {
						t.Errorf("%s: attack: %v", name, err)
					}
					if err := mem.SetState(dram.SelfRefresh); err != nil {
						t.Errorf("%s: self-refresh: %v", name, err)
					}
				})
				_, err = p.RunCycles(workload.Fixed(8, 0, 30*sim.Second))
				if err == nil || !strings.Contains(err.Error(), "integrity violation") {
					t.Errorf("%s at %v under %v: err = %v (replayed %d MEE ops), want an MEE integrity violation",
						name, at, mode, err, p.FFStats().MEEOpsReplayed)
				}
			}
		}
	}
}

// TestMemInsideRecordedCycle calls Mem() from a hook the DRAM module runs
// on every power-state change, so it fires mid-cycle in cycles that start
// with an empty queue and are therefore recorded for whole-cycle replay.
// Each call drops that cycle's op replay; the recording must be dropped
// with it, or its record would replay an engine state the dropped latch
// never produced.
func TestMemInsideRecordedCycle(t *testing.T) {
	cfg := zeroPPBConfigs()["odrips"]
	cycles := workload.Fixed(20, 0, 30*sim.Second)
	var want Result
	for _, mode := range []FFMode{FFOff, FFOn, FFVerify} {
		p, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := p.SetFastForward(mode); err != nil {
			t.Fatalf("SetFastForward: %v", err)
		}
		mem := p.Mem()
		onDraw := mem.OnDraw
		mem.OnDraw = func(mW float64) {
			onDraw(mW)
			p.Mem()
		}
		res, err := p.RunCycles(cycles)
		if err != nil {
			t.Fatalf("RunCycles(%v): %v", mode, err)
		}
		if mode == FFOff {
			want = res
		} else if !reflect.DeepEqual(res, want) {
			t.Errorf("%v: Result diverged from off:\noff: %+v\ngot: %+v", mode, want, res)
		}
	}
}
