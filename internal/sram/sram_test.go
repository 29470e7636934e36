package sram

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestLeakageRatioProcessorVsChipset(t *testing.T) {
	p := New("proc", ProcessorProcess, 200<<10)
	c := New("chip", ChipsetProcess, 200<<10)
	ratio := p.DrawMW(Retention) / c.DrawMW(Retention)
	// Paper §3 Observation 3: ~5x.
	if math.Abs(ratio-5.0) > 1e-9 {
		t.Fatalf("processor/chipset retention leakage ratio = %v, want 5", ratio)
	}
}

func TestContextArrayDrawCalibration(t *testing.T) {
	// 225 KiB of processor-process retention SRAM should draw ~4.5 mW
	// nominal (the S/R SRAM budget in the DRIPS breakdown).
	a := New("ctx", ProcessorProcess, 225<<10)
	if got := a.DrawMW(Retention); math.Abs(got-4.5) > 1e-9 {
		t.Fatalf("225KiB retention draw = %v mW, want 4.5", got)
	}
	if a.DrawMW(Off) != 0 {
		t.Fatal("off draw not zero")
	}
	if a.DrawMW(Active) <= a.DrawMW(Retention) {
		t.Fatal("active draw not above retention draw")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	a := New("x", ProcessorProcess, 1024)
	a.SetState(Active)
	msg := []byte("processor context: CSRs, patches, fuses")
	if err := a.Write(100, msg); err != nil {
		t.Fatal(err)
	}
	got, err := a.Read(100, len(msg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read back %q", got)
	}
}

func TestAccessRequiresActive(t *testing.T) {
	a := New("x", ProcessorProcess, 64)
	if err := a.Write(0, []byte{1}); err == nil {
		t.Fatal("write while off succeeded")
	}
	a.SetState(Retention)
	if _, err := a.Read(0, 1); err == nil {
		t.Fatal("read in retention succeeded")
	}
}

func TestPowerLossDestroysContents(t *testing.T) {
	a := New("x", ProcessorProcess, 64)
	a.SetState(Active)
	if err := a.Write(0, []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	a.SetState(Off)
	a.SetState(Active)
	if _, err := a.Read(0, 1); err == nil {
		t.Fatal("read of invalidated contents succeeded")
	}
}

func TestRetentionPreservesContents(t *testing.T) {
	a := New("x", ChipsetProcess, 64)
	a.SetState(Active)
	if err := a.Write(10, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	a.SetState(Retention)
	a.SetState(Active)
	got, err := a.Read(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("retention lost data: %v", got)
	}
}

func TestBoundsChecks(t *testing.T) {
	a := New("x", ProcessorProcess, 64)
	a.SetState(Active)
	if err := a.Write(60, []byte{1, 2, 3, 4, 5}); err == nil {
		t.Fatal("out-of-range write succeeded")
	}
	if err := a.Write(-1, []byte{1}); err == nil {
		t.Fatal("negative-offset write succeeded")
	}
	if err := a.Write(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Read(60, 5); err == nil {
		t.Fatal("out-of-range read succeeded")
	}
}

func TestOnDrawHook(t *testing.T) {
	a := New("x", ProcessorProcess, 1024)
	var draws []float64
	a.OnDraw = func(mw float64) { draws = append(draws, mw) }
	a.SetState(Active)
	a.SetState(Active) // no-op
	a.SetState(Retention)
	a.SetState(Off)
	if len(draws) != 3 {
		t.Fatalf("hook fired %d times, want 3", len(draws))
	}
	if draws[2] != 0 || draws[1] >= draws[0] {
		t.Fatalf("draw sequence = %v", draws)
	}
}

func TestZeroSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size array did not panic")
		}
	}()
	New("bad", ProcessorProcess, 0)
}

// Property: any sequence of writes followed by reads over live power
// returns exactly what was written last at each offset.
func TestWriteReadProperty(t *testing.T) {
	f := func(writes []struct {
		Off  uint8
		Data [4]byte
	}) bool {
		a := New("p", ChipsetProcess, 256+4)
		a.SetState(Active)
		shadow := make([]byte, a.Size())
		for _, w := range writes {
			if err := a.Write(int(w.Off), w.Data[:]); err != nil {
				return false
			}
			copy(shadow[w.Off:], w.Data[:])
		}
		if len(writes) == 0 {
			return true
		}
		got, err := a.Read(0, a.Size())
		if err != nil {
			return false
		}
		return bytes.Equal(got, shadow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestOffClearsWhatWasWritten: after a power loss only what is written
// again compares equal; every other span compares equal to zeros, however
// much an earlier write covered, and a power loss after a write
// invalidates it again. Equal compares in place under Read's rules.
func TestOffClearsWhatWasWritten(t *testing.T) {
	a := New("x", ProcessorProcess, 4096)
	a.SetState(Active)
	if err := a.Write(3000, bytes.Repeat([]byte{0x3C}, 96)); err != nil {
		t.Fatal(err)
	}
	if err := a.Write(512, bytes.Repeat([]byte{0xA5}, 2048)); err != nil {
		t.Fatal(err)
	}
	a.SetState(Off)
	a.SetState(Active)
	msg := []byte("partial")
	if err := a.Write(1000, msg); err != nil {
		t.Fatal(err)
	}
	for _, span := range [][2]int{{0, 1000}, {1000 + len(msg), 4096}, {2990, 3200}} {
		if ok, err := a.Equal(span[0], make([]byte, span[1]-span[0])); err != nil || !ok {
			t.Fatalf("span [%d,%d) does not compare equal to zeros (%v)", span[0], span[1], err)
		}
	}
	if ok, err := a.Equal(1000, msg); err != nil || !ok {
		t.Fatalf("written span: equal %v, %v", ok, err)
	}
	if ok, err := a.Equal(1000, []byte("partiaL")); err != nil || ok {
		t.Fatalf("last byte differs: equal %v, %v; want a mismatch", ok, err)
	}
	if _, err := a.Equal(4090, msg); err == nil {
		t.Fatal("out-of-range compare succeeded")
	}
	a.SetState(Retention)
	if _, err := a.Equal(1000, msg); err == nil {
		t.Fatal("compare in Retention succeeded")
	}
	a.SetState(Off)
	a.SetState(Active)
	if _, err := a.Equal(1000, msg); err == nil {
		t.Fatal("compare after a power loss succeeded")
	}
}
