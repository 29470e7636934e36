package mee

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"odrips/internal/ctxstore"
	"odrips/internal/dram"
)

var testKey = [32]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

// readBlock reads data block i into a fresh buffer through ReadBlockInto,
// the read the restore path makes.
func readBlock(e *Engine, i int) ([]byte, error) {
	out := make([]byte, BlockSize)
	if err := e.ReadBlockInto(i, out); err != nil {
		return nil, err
	}
	return out, nil
}

func newEngine(t testing.TB, dataBlocks int) (*dram.Module, *Engine) {
	return newEngineLines(t, dataBlocks, 32)
}

func newEngineLines(t testing.TB, dataBlocks, lines int) (*dram.Module, *Engine) {
	t.Helper()
	mem := dram.New(dram.Skylake8GB())
	e, err := New(mem, 0x1000_0000, dataBlocks, testKey, lines)
	if err != nil {
		t.Fatal(err)
	}
	e.ResetStats()
	return mem, e
}

func block(seed byte) []byte {
	b := make([]byte, BlockSize)
	for i := range b {
		b[i] = seed ^ byte(i*31)
	}
	return b
}

func TestLayoutGeometry(t *testing.T) {
	// 200 KiB context = 3200 data blocks.
	l, err := PlanLayout(0, 3200)
	if err != nil {
		t.Fatal(err)
	}
	if l.L0Blocks != (3200+2)/3 {
		t.Fatalf("L0 blocks = %d", l.L0Blocks)
	}
	// Tree must shrink by 7x per level down to a single node.
	prev := l.L0Blocks
	for i, n := range l.LevelNodes {
		want := (prev + nodeArity - 1) / nodeArity
		if n != want {
			t.Fatalf("level %d has %d nodes, want %d", i+1, n, want)
		}
		prev = n
	}
	if l.LevelNodes[len(l.LevelNodes)-1] != 1 {
		t.Fatal("top level is not a single node")
	}
	// Metadata overhead should be modest (~35% for this geometry).
	overhead := float64(l.MetadataBytes()) / float64(3200*BlockSize)
	if overhead < 0.2 || overhead > 0.6 {
		t.Fatalf("metadata overhead = %.2f", overhead)
	}
}

func TestLayoutErrors(t *testing.T) {
	if _, err := PlanLayout(0, 0); err == nil {
		t.Fatal("zero-block layout accepted")
	}
	if _, err := PlanLayout(13, 10); err == nil {
		t.Fatal("unaligned base accepted")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	_, e := newEngine(t, 64)
	for i := 0; i < 64; i++ {
		if err := e.WriteBlock(i, block(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		got := make([]byte, BlockSize)
		if err := e.ReadBlockInto(i, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, block(byte(i))) {
			t.Fatalf("block %d mismatch", i)
		}
	}
}

func TestCiphertextDiffersFromPlaintext(t *testing.T) {
	mem, e := newEngine(t, 4)
	pt := block(0x42)
	if err := e.WriteBlock(0, pt); err != nil {
		t.Fatal(err)
	}
	ct, err := mem.Read(e.Layout().dataAddr(0), BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct, pt) {
		t.Fatal("DRAM holds plaintext")
	}
	// Same plaintext re-written gets a fresh version, hence fresh
	// ciphertext (no deterministic encryption leak).
	if err := e.WriteBlock(0, pt); err != nil {
		t.Fatal(err)
	}
	ct2, _ := mem.Read(e.Layout().dataAddr(0), BlockSize)
	if bytes.Equal(ct, ct2) {
		t.Fatal("re-encryption reused the keystream")
	}
}

func TestUnwrittenBlockRejected(t *testing.T) {
	_, e := newEngine(t, 4)
	var blk [BlockSize]byte
	if err := e.ReadBlockInto(2, blk[:]); err == nil {
		t.Fatal("read of never-written block succeeded")
	}
}

func TestTamperCiphertextDetected(t *testing.T) {
	mem, e := newEngine(t, 4)
	if err := e.WriteBlock(1, block(7)); err != nil {
		t.Fatal(err)
	}
	addr := e.Layout().dataAddr(1)
	ct, _ := mem.Read(addr, BlockSize)
	ct[5] ^= 0x01
	if err := mem.Write(addr, ct); err != nil {
		t.Fatal(err)
	}
	var blk [BlockSize]byte
	err := e.ReadBlockInto(1, blk[:])
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("tampered ciphertext read: %v, want IntegrityError", err)
	}
}

func TestTamperMetadataDetected(t *testing.T) {
	mem, e := newEngine(t, 16)
	for i := 0; i < 16; i++ {
		if err := e.WriteBlock(i, block(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	// Corrupt an L0 metadata block in DRAM; a cold engine must refuse it.
	addr := e.Layout().l0Addr(0)
	raw, _ := mem.Read(addr, BlockSize)
	raw[3] ^= 0x80
	if err := mem.Write(addr, raw); err != nil {
		t.Fatal(err)
	}
	e2, err := ImportState(mem, e.ExportState(), 32)
	if err != nil {
		t.Fatal(err)
	}
	var blk [BlockSize]byte
	err = e2.ReadBlockInto(0, blk[:])
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("tampered metadata read: %v, want IntegrityError", err)
	}
}

func TestReplayOldCiphertextDetected(t *testing.T) {
	mem, e := newEngine(t, 4)
	if err := e.WriteBlock(0, block(1)); err != nil {
		t.Fatal(err)
	}
	addr := e.Layout().dataAddr(0)
	old, _ := mem.Read(addr, BlockSize)
	if err := e.WriteBlock(0, block(2)); err != nil {
		t.Fatal(err)
	}
	// Attacker restores the stale ciphertext.
	if err := mem.Write(addr, old); err != nil {
		t.Fatal(err)
	}
	_, err := readBlock(e, 0)
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("replayed ciphertext read: %v, want IntegrityError", err)
	}
}

// TestFullRegionReplayDetected snapshots the whole region (data AND
// metadata), performs another write, restores the snapshot, and verifies
// the on-chip root counter catches the rollback — the freshness property
// that makes DRAM a safe home for the processor context.
func TestFullRegionReplayDetected(t *testing.T) {
	mem, e := newEngine(t, 8)
	for i := 0; i < 8; i++ {
		if err := e.WriteBlock(i, block(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	l := e.Layout()
	snapshot, err := mem.Read(l.Base, int(l.TotalBytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Legitimate update after the snapshot.
	if err := e.WriteBlock(3, block(0xEE)); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	// Attacker rolls the entire region back.
	if err := mem.Write(l.Base, snapshot); err != nil {
		t.Fatal(err)
	}
	_, err = readBlock(e, 3)
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("full-region rollback read: %v, want IntegrityError", err)
	}
}

func TestStateRoundTripAcrossSelfRefresh(t *testing.T) {
	mem, e := newEngine(t, 32)
	payload := make([]byte, 32*BlockSize)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	if err := e.WriteRegion(payload); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	state := e.ExportState()
	if len(state) != StateSize {
		t.Fatalf("state size = %d, want %d", len(state), StateSize)
	}
	// DRIPS: engine powered off (dropped), DRAM in self-refresh.
	if err := mem.SetState(dram.SelfRefresh); err != nil {
		t.Fatal(err)
	}
	if err := mem.SetState(dram.Active); err != nil {
		t.Fatal(err)
	}
	e2, err := ImportState(mem, state, 32)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e2.ReadRegion(len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("region mismatch after power cycle")
	}
}

func TestCorruptStateBlobRejected(t *testing.T) {
	_, e := newEngine(t, 4)
	state := e.ExportState()
	state[10] ^= 1
	if _, err := ImportState(dram.New(dram.Skylake8GB()), state, 32); err == nil {
		t.Fatal("corrupt state blob accepted")
	}
	if _, err := ImportState(dram.New(dram.Skylake8GB()), state[:10], 32); err == nil {
		t.Fatal("truncated state blob accepted")
	}
}

func TestBoundsAndSizes(t *testing.T) {
	_, e := newEngine(t, 4)
	if err := e.WriteBlock(4, block(0)); err == nil {
		t.Fatal("out-of-range write accepted")
	}
	if err := e.WriteBlock(-1, block(0)); err == nil {
		t.Fatal("negative index accepted")
	}
	if err := e.WriteBlock(0, []byte{1, 2}); err == nil {
		t.Fatal("short plaintext accepted")
	}
	if _, err := readBlock(e, 99); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if err := e.WriteRegion(make([]byte, 5*BlockSize)); err == nil {
		t.Fatal("oversized region write accepted")
	}
	if _, err := e.ReadRegion(5 * BlockSize); err == nil {
		t.Fatal("oversized region read accepted")
	}
}

func TestContextTrafficMatchesPaperScale(t *testing.T) {
	// The paper's ~200 KB context through a DDR3L-1600 module should cost
	// ~18 us to save and ~13 us to restore (§6.3). Check the traffic the
	// engine generates lands in that range when priced by the module.
	mem, e := newEngineLines(t, 3200, DefaultCacheLines) // 200 KiB
	payload := make([]byte, 3200*BlockSize)
	rand.New(rand.NewSource(7)).Read(payload)

	e.ResetStats()
	if err := e.WriteRegion(payload); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	ws := e.Stats()
	writeTime := ws.TransferTime(mem, true)
	if ms := writeTime.Microseconds(); ms < 12 || ms > 26 {
		t.Fatalf("context save = %.1f us (traffic %d blocks), want ~18", ms, ws.TotalBlocks())
	}

	// Cold restore.
	e2, err := ImportState(mem, e.ExportState(), 32)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e2.ReadRegion(len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("restore mismatch")
	}
	rs := e2.Stats()
	readTime := rs.TransferTime(mem, false)
	if ms := readTime.Microseconds(); ms < 9 || ms > 20 {
		t.Fatalf("context restore = %.1f us (traffic %d blocks), want ~13", ms, rs.TotalBlocks())
	}
	if rs.TotalBlocks() >= ws.TotalBlocks() {
		t.Fatal("restore traffic not below save traffic")
	}
	// The MEE cache must be doing real work.
	if rs.CacheHits == 0 || ws.CacheHits == 0 {
		t.Fatal("MEE cache never hit")
	}
}

// TestTransferTimeMatchesPaper: the Skylake context image saved through a
// formatted engine and restored through a cold import, each priced by
// Stats.TransferTime on the baseline DDR3L-1600 module, lands on §6.3's
// ~18 us save and ~13 us restore, restore below save, and the bytes
// round-trip.
func TestTransferTimeMatchesPaper(t *testing.T) {
	mem := dram.New(dram.Skylake8GB())
	var key [32]byte
	key[0] = 9
	img := ctxstore.GenerateSkylake(2).Serialize()
	blocks := (len(img) + BlockSize - 1) / BlockSize
	f, err := Format(0x1000_0000, blocks, key)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewFormatted(mem, f, DefaultCacheLines)
	if err != nil {
		t.Fatal(err)
	}
	snap := eng.CaptureOp()
	if err := eng.WriteRegion(img); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	saveLat := eng.DeltaSince(snap).Stats.TransferTime(mem, true)
	// §6.3: ~18 us save for ~200 KB (95% estimation accuracy claimed).
	if us := saveLat.Microseconds(); us < 14 || us > 24 {
		t.Fatalf("DRAM context save latency = %.1f us, want ~18", us)
	}
	// Cold engine restore (as after DRIPS).
	cold, err := ImportState(mem, eng.ExportState(), DefaultCacheLines)
	if err != nil {
		t.Fatal(err)
	}
	snap = cold.CaptureOp()
	back, err := cold.ReadRegionInto(make([]byte, blocks*BlockSize), len(img))
	if err != nil {
		t.Fatal(err)
	}
	restoreLat := cold.DeltaSince(snap).Stats.TransferTime(mem, false)
	if us := restoreLat.Microseconds(); us < 10 || us > 18 {
		t.Fatalf("DRAM context restore latency = %.1f us, want ~13", us)
	}
	if restoreLat >= saveLat {
		t.Fatal("restore not faster than save")
	}
	if !bytes.Equal(back, img) {
		t.Fatal("context mismatch after DRAM round trip")
	}
}

// Property: random interleavings of writes and reads always round-trip, and
// reads never succeed with wrong data.
func TestRandomAccessProperty(t *testing.T) {
	f := func(ops []struct {
		Idx   uint8
		Seed  byte
		Write bool
	}) bool {
		_, e := newEngine(t, 16)
		shadow := make(map[int][]byte)
		for _, op := range ops {
			i := int(op.Idx % 16)
			if op.Write {
				data := block(op.Seed)
				if err := e.WriteBlock(i, data); err != nil {
					return false
				}
				shadow[i] = data
			} else {
				got, err := readBlock(e, i)
				want, written := shadow[i]
				if !written {
					if err == nil {
						return false
					}
					continue
				}
				if err != nil || !bytes.Equal(got, want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: tampering any single byte of the region (data or metadata,
// after flush) makes some read fail.
func TestTamperAnywhereProperty(t *testing.T) {
	f := func(offSeed uint16) bool {
		mem, e := newEngine(t, 8)
		for i := 0; i < 8; i++ {
			if err := e.WriteBlock(i, block(byte(i))); err != nil {
				return false
			}
		}
		if err := e.Flush(); err != nil {
			return false
		}
		l := e.Layout()
		off := uint64(offSeed) % l.TotalBytes()
		blockAddr := l.Base + off/BlockSize*BlockSize
		raw, err := mem.Read(blockAddr, BlockSize)
		if err != nil {
			return false
		}
		raw[off%BlockSize] ^= 0xA5
		if err := mem.Write(blockAddr, raw); err != nil {
			return false
		}
		cold, err := ImportState(mem, e.ExportState(), 32)
		if err != nil {
			return false
		}
		// At least one block read must fail.
		for i := 0; i < 8; i++ {
			if _, err := readBlock(cold, i); err != nil {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteBlock(b *testing.B) {
	_, e := newEngine(b, 3200)
	data := block(9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.WriteBlock(i%3200, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContextSave200KB(b *testing.B) {
	payload := make([]byte, 3200*BlockSize)
	rand.New(rand.NewSource(1)).Read(payload)
	_, e := newEngine(b, 3200)
	// Warm once: materialize the DRAM blocks and the metadata cache so the
	// timed iterations measure the steady-state save that every repeated
	// C10 cycle performs (the first-ever save also pays engine format).
	if err := e.WriteRegion(payload); err != nil {
		b.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.WriteRegion(payload); err != nil {
			b.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: arbitrary interleavings of writes, flushes, and power cycles
// (export state, DRAM self-refresh round trip, cold import) preserve every
// committed block and never accept a stale one.
func TestPowerCycleFuzzProperty(t *testing.T) {
	f := func(ops []uint8, seed byte) bool {
		mem := dram.New(dram.Skylake8GB())
		e, err := New(mem, 0x2000_0000, 24, testKey, 16)
		if err != nil {
			return false
		}
		shadow := make(map[int][]byte)
		for i, op := range ops {
			switch op % 4 {
			case 0, 1: // write
				idx := int(op/4) % 24
				data := block(seed ^ byte(i))
				if err := e.WriteBlock(idx, data); err != nil {
					return false
				}
				shadow[idx] = data
			case 2: // read+verify a random committed block
				idx := int(op/4) % 24
				want, ok := shadow[idx]
				got, err := readBlock(e, idx)
				if !ok {
					if err == nil {
						return false
					}
					continue
				}
				if err != nil || !bytes.Equal(got, want) {
					return false
				}
			case 3: // power cycle: flush, export, self-refresh, cold import
				if err := e.Flush(); err != nil {
					return false
				}
				state := e.ExportState()
				if err := mem.SetState(dram.SelfRefresh); err != nil {
					return false
				}
				if err := mem.SetState(dram.Active); err != nil {
					return false
				}
				e, err = ImportState(mem, state, 16)
				if err != nil {
					return false
				}
			}
		}
		// Final audit: every committed block reads back exactly.
		for idx, want := range shadow {
			got, err := readBlock(e, idx)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
