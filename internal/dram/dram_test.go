package dram

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"odrips/internal/sim"
)

// pcm8GB is the §8.3 PCM-as-main-memory module: Table 1's geometry with
// PCM cells, as the platform builds it for MainMemory PCM.
func pcm8GB() Config {
	c := Skylake8GB()
	c.Tech = PCM
	return c
}

func TestSkylakeConfigBandwidth(t *testing.T) {
	m := New(Skylake8GB())
	// DDR3L-1600 dual channel x 8B = 25.6 GB/s peak.
	if got := m.PeakBandwidth(); math.Abs(got-25.6e9) > 1 {
		t.Fatalf("peak bandwidth = %v, want 25.6e9", got)
	}
}

func TestTransferTimeScalesWithFrequency(t *testing.T) {
	cfg := Skylake8GB()
	full := New(cfg)
	cfg.TransferMTps = 800
	half := New(cfg)
	n := 200 << 10
	tf := full.TransferTime(n, true)
	th := half.TransferTime(n, true)
	if th <= tf {
		t.Fatalf("half-speed transfer %v not slower than full-speed %v", th, tf)
	}
	// Variable part should double exactly.
	varFull := tf - 2*sim.Microsecond
	varHalf := th - 2*sim.Microsecond
	ratio := float64(varHalf) / float64(varFull)
	if math.Abs(ratio-2.0) > 0.01 {
		t.Fatalf("variable transfer ratio = %v, want 2.0", ratio)
	}
}

func TestPCMWriteSlowerThanRead(t *testing.T) {
	m := New(pcm8GB())
	n := 200 << 10
	if m.TransferTime(n, true) <= m.TransferTime(n, false) {
		t.Fatal("PCM write not slower than read")
	}
	d := New(Skylake8GB())
	if m.TransferTime(n, true) <= d.TransferTime(n, true) {
		t.Fatal("PCM write not slower than DRAM write")
	}
}

func TestIdleDraw(t *testing.T) {
	d := New(Skylake8GB())
	p := New(pcm8GB())
	// DDR3L 8GB self-refresh = 12.4 mW nominal (the DRIPS budget).
	if got := d.IdleDrawMW(SelfRefresh); math.Abs(got-12.4) > 1e-9 {
		t.Fatalf("DDR3L self-refresh draw = %v, want 12.4", got)
	}
	if p.IdleDrawMW(SelfRefresh) >= d.IdleDrawMW(SelfRefresh)/2 {
		t.Fatal("PCM idle draw not well below DDR3L self-refresh")
	}
	if d.IdleDrawMW(PoweredOff) != 0 {
		t.Fatal("powered-off draw not zero")
	}
	if d.IdleDrawMW(Active) <= d.IdleDrawMW(SelfRefresh) {
		t.Fatal("active draw not above self-refresh")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(Skylake8GB())
	data := make([]byte, 3*BlockSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := m.Write(0x1000, data); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(0x1000, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	m := New(Skylake8GB())
	got, err := m.Read(0x2000, BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, BlockSize)) {
		t.Fatal("unwritten block not zero")
	}
}

func TestAccessRules(t *testing.T) {
	m := New(Skylake8GB())
	if err := m.Write(7, make([]byte, BlockSize)); err == nil {
		t.Fatal("unaligned address accepted")
	}
	if err := m.Write(0, make([]byte, 10)); err == nil {
		t.Fatal("unaligned length accepted")
	}
	if err := m.Write(8<<30, make([]byte, BlockSize)); err == nil {
		t.Fatal("beyond-capacity write accepted")
	}
	if err := m.SetState(SelfRefresh); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(0, BlockSize); err == nil {
		t.Fatal("read during self-refresh succeeded")
	}
}

func TestSelfRefreshRetainsVolatileData(t *testing.T) {
	m := New(Skylake8GB())
	if err := m.Write(0, []byte(pad("context", BlockSize))); err != nil {
		t.Fatal(err)
	}
	if err := m.SetState(SelfRefresh); err != nil {
		t.Fatal(err)
	}
	if err := m.SetState(Active); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(0, BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:7]) != "context" {
		t.Fatal("self-refresh lost data")
	}
}

func TestPowerOffDestroysDDR3L(t *testing.T) {
	m := New(Skylake8GB())
	if err := m.Write(0, []byte(pad("secret", BlockSize))); err != nil {
		t.Fatal(err)
	}
	if err := m.SetState(PoweredOff); err != nil {
		t.Fatal(err)
	}
	if err := m.SetState(Active); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Read(0, BlockSize)
	if !bytes.Equal(got, make([]byte, BlockSize)) {
		t.Fatal("DDR3L retained data across power-off")
	}
}

func TestPowerOffRetainsPCM(t *testing.T) {
	m := New(pcm8GB())
	if err := m.Write(0, []byte(pad("persist", BlockSize))); err != nil {
		t.Fatal(err)
	}
	if err := m.SetState(PoweredOff); err != nil {
		t.Fatal(err)
	}
	if err := m.SetState(Active); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(0, BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:7]) != "persist" {
		t.Fatal("PCM lost data across power-off")
	}
}

func TestCKERules(t *testing.T) {
	m := New(Skylake8GB())
	if err := m.Write(0, []byte(pad("x", BlockSize))); err != nil {
		t.Fatal(err)
	}
	m.SetCKE(false)
	if err := m.SetState(SelfRefresh); err == nil {
		t.Fatal("self-refresh without CKE accepted")
	}
	m.SetCKE(true)
	if err := m.SetState(SelfRefresh); err != nil {
		t.Fatal(err)
	}
	// Dropping CKE mid-self-refresh destroys contents.
	m.SetCKE(false)
	m.SetCKE(true)
	if err := m.SetState(Active); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Read(0, BlockSize)
	if got[0] == 'x' {
		t.Fatal("DDR3L retained data after CKE dropped in self-refresh")
	}
}

func TestPCMIgnoresCKE(t *testing.T) {
	m := New(pcm8GB())
	if err := m.Write(0, []byte(pad("nv", BlockSize))); err != nil {
		t.Fatal(err)
	}
	m.SetCKE(false)
	if err := m.SetState(SelfRefresh); err != nil {
		t.Fatalf("PCM idle entry required CKE: %v", err)
	}
	m.SetCKE(true)
	if err := m.SetState(Active); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(0, BlockSize)
	if err != nil || got[0] != 'n' {
		t.Fatalf("PCM lost data on CKE games: %v %v", got[:2], err)
	}
}

func TestSelfRefreshFromOffRejected(t *testing.T) {
	m := New(Skylake8GB())
	if err := m.SetState(PoweredOff); err != nil {
		t.Fatal(err)
	}
	if err := m.SetState(SelfRefresh); err == nil {
		t.Fatal("self-refresh from power-off accepted")
	}
}

func TestOnDrawHook(t *testing.T) {
	m := New(Skylake8GB())
	var draws []float64
	m.OnDraw = func(mw float64) { draws = append(draws, mw) }
	if err := m.SetState(SelfRefresh); err != nil {
		t.Fatal(err)
	}
	if err := m.SetState(Active); err != nil {
		t.Fatal(err)
	}
	if len(draws) != 2 || draws[0] >= draws[1] {
		t.Fatalf("draw hook sequence = %v", draws)
	}
}

// Property: write/read round trips preserve data for arbitrary block
// patterns and addresses while power stays on.
func TestSparseStoreProperty(t *testing.T) {
	f := func(addrs []uint16, seed byte) bool {
		m := New(Skylake8GB())
		shadow := make(map[uint64][]byte)
		for i, a := range addrs {
			addr := uint64(a) * BlockSize
			blk := make([]byte, BlockSize)
			for j := range blk {
				blk[j] = byte(i) ^ seed ^ byte(j)
			}
			if err := m.Write(addr, blk); err != nil {
				return false
			}
			shadow[addr] = blk
		}
		for addr, want := range shadow {
			got, err := m.Read(addr, BlockSize)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func pad(s string, n int) string {
	b := make([]byte, n)
	copy(b, s)
	return string(b)
}

func BenchmarkBlockWrite(b *testing.B) {
	m := New(Skylake8GB())
	blk := make([]byte, BlockSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Write(uint64(i%1024)*BlockSize, blk)
	}
}

func TestReadBlockInto(t *testing.T) {
	m := New(Skylake8GB())
	blk := make([]byte, BlockSize)
	for i := range blk {
		blk[i] = byte(i + 1)
	}
	if err := m.Write(0x1000, blk); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockSize)
	if err := m.ReadBlockInto(0x1000, dst[:BlockSize-1]); err == nil {
		t.Fatal("short destination accepted")
	}
	if err := m.ReadBlockInto(0x1000, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, blk) {
		t.Fatal("ReadBlockInto returned wrong bytes")
	}
	// An unwritten block must zero-fill the whole destination, not leave
	// stale bytes from a previous read.
	if err := m.ReadBlockInto(0x2000, dst); err != nil {
		t.Fatal(err)
	}
	for i, b := range dst {
		if b != 0 {
			t.Fatalf("unwritten block byte %d = %#x, want 0", i, b)
		}
	}
	if err := m.ReadBlockInto(0x1001, dst); err == nil {
		t.Fatal("unaligned address accepted")
	}
}

// TestWriteUpdatesInPlace pins Write's contract: a rewrite replaces the
// block's contents, and the module keeps a copy, never the caller's buffer.
func TestWriteUpdatesInPlace(t *testing.T) {
	m := New(Skylake8GB())
	blk := make([]byte, BlockSize)
	if err := m.Write(0, blk); err != nil {
		t.Fatal(err)
	}
	blk[7] = 0x77
	if err := m.Write(0, blk); err != nil {
		t.Fatal(err)
	}
	blk[7] = 0x11
	got, err := m.Read(0, BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if got[7] != 0x77 {
		t.Fatalf("byte 7 = %#x after rewrite, want 0x77", got[7])
	}
}

func TestCorruptBit(t *testing.T) {
	m := New(Skylake8GB())
	data := make([]byte, BlockSize)
	for i := range data {
		data[i] = byte(i)
	}
	if err := m.Write(0x1000, data); err != nil {
		t.Fatal(err)
	}

	// Legal in Active.
	if err := m.CorruptBit(0x1000+5, 3); err != nil {
		t.Fatal(err)
	}
	// Legal in SelfRefresh; counts no traffic.
	if err := m.SetState(SelfRefresh); err != nil {
		t.Fatal(err)
	}
	if err := m.CorruptBit(0x1000+5, 3); err != nil {
		t.Fatal(err)
	}
	// Double flip restored the original byte.
	if err := m.SetState(Active); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(0x1000, BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("double bit flip did not restore contents")
	}
	// Single flip changes exactly one bit.
	if err := m.CorruptBit(0x1000, 7); err != nil {
		t.Fatal(err)
	}
	got, err = m.Read(0x1000, BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != data[0]^0x80 {
		t.Fatalf("byte 0 = %#x, want %#x", got[0], data[0]^0x80)
	}

	// Never-written blocks materialize as zeros plus the flip.
	if err := m.CorruptBit(0x8000+1, 0); err != nil {
		t.Fatal(err)
	}
	got, err = m.Read(0x8000, BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != 1 {
		t.Fatalf("materialized block byte = %#x, want 0x01", got[1])
	}

	// Illegal without contents or beyond capacity.
	if err := m.SetState(PoweredOff); err != nil {
		t.Fatal(err)
	}
	if err := m.CorruptBit(0x1000, 0); err == nil {
		t.Fatal("corrupt in PoweredOff accepted")
	}
	if err := m.SetState(Active); err != nil {
		t.Fatal(err)
	}
	if err := m.CorruptBit(m.Config().CapacityBytes, 0); err == nil {
		t.Fatal("corrupt beyond capacity accepted")
	}
}

func TestSetContents(t *testing.T) {
	m := New(Skylake8GB())
	data := make([]byte, 2*BlockSize)
	for i := range data {
		data[i] = byte(i)
	}
	// Legal in SelfRefresh; counts no traffic; copies the caller's bytes.
	if err := m.SetState(SelfRefresh); err != nil {
		t.Fatal(err)
	}
	if err := m.SetContents(0x2000, data); err != nil {
		t.Fatal(err)
	}
	data[0] = 0xFF
	if err := m.SetState(Active); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(0x2000, 2*BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 0
	if !bytes.Equal(got, data) {
		t.Fatal("SetContents did not store the bytes")
	}
	// Alignment and capacity rules as for Write; no contents when off.
	if err := m.SetContents(0x2001, data[:BlockSize]); err == nil {
		t.Fatal("unaligned SetContents accepted")
	}
	if err := m.SetContents(m.Config().CapacityBytes, data[:BlockSize]); err == nil {
		t.Fatal("SetContents beyond capacity accepted")
	}
	if err := m.SetState(PoweredOff); err != nil {
		t.Fatal(err)
	}
	if err := m.SetContents(0x2000, data[:BlockSize]); err == nil {
		t.Fatal("SetContents accepted while powered off")
	}
}
