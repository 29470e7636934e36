package mee

import (
	"bytes"
	"math/rand"
	"testing"

	"odrips/internal/dram"
)

// regionBytes reads an engine's whole protected region (data and
// metadata) straight from its module.
func regionBytes(t *testing.T, mem *dram.Module, e *Engine) []byte {
	t.Helper()
	l := e.Layout()
	b, err := mem.Read(l.Base, int(l.TotalBytes()))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// saveOp runs one context save (WriteRegion + Flush) and returns its
// record.
func saveOp(t *testing.T, e *Engine, image []byte) OpRecord {
	t.Helper()
	snap := e.CaptureOp()
	if err := e.WriteRegion(image); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return e.DeltaSince(snap)
}

// TestReplayMaterializeFromFormat is the soundness check behind sharing
// a platform's first-save record: an engine that replays the save from
// mee.New's formatted state and then materializes (k = 1) holds exactly
// the bytes, counters and root a real save from that state leaves, and a
// real restore over them verifies. The second save, from the primed
// post-restore state, checks k = 2 the same way.
func TestReplayMaterializeFromFormat(t *testing.T) {
	for _, size := range []int{40*BlockSize - 17, 3200 * BlockSize} {
		blocks := (size + BlockSize - 1) / BlockSize
		image := make([]byte, size)
		rand.New(rand.NewSource(int64(size))).Read(image)

		liveMem := dram.New(dram.Skylake8GB())
		live, err := New(liveMem, 0x1000_0000, blocks, testKey, DefaultCacheLines)
		if err != nil {
			t.Fatal(err)
		}
		virtMem := dram.New(dram.Skylake8GB())
		virt, err := New(virtMem, 0x1000_0000, blocks, testKey, DefaultCacheLines)
		if err != nil {
			t.Fatal(err)
		}
		if live.CacheDigest() != virt.CacheDigest() {
			t.Fatalf("%d B: two formatted engines differ in cache digest", size)
		}

		check := func(k int) {
			t.Helper()
			if err := virt.ReplayMaterialize(image); err != nil {
				t.Fatalf("%d B, k=%d: materialize: %v", size, k, err)
			}
			if !bytes.Equal(regionBytes(t, liveMem, live), regionBytes(t, virtMem, virt)) {
				t.Fatalf("%d B, k=%d: materialized region differs from the real save's", size, k)
			}
			if live.RootCounter() != virt.RootCounter() || live.Stats() != virt.Stats() {
				t.Fatalf("%d B, k=%d: root/stats %d %+v, live %d %+v", size, k,
					virt.RootCounter(), virt.Stats(), live.RootCounter(), live.Stats())
			}
		}

		// k = 1: the first save, from the formatted state.
		virt.ReplayOp(saveOp(t, live, image))
		check(1)

		// A real restore over the materialized bytes verifies and leaves
		// the same primed cache as the live engine's restore.
		restore := func(mem *dram.Module, e *Engine) (*Engine, OpRecord) {
			t.Helper()
			imp, err := ImportState(mem, e.ExportState(), DefaultCacheLines)
			if err != nil {
				t.Fatal(err)
			}
			snap := imp.CaptureOp()
			got, err := imp.ReadRegion(size)
			if err != nil {
				t.Fatalf("%d B: restore: %v", size, err)
			}
			if !bytes.Equal(got, image) {
				t.Fatalf("%d B: restore returned wrong bytes", size)
			}
			return imp, imp.DeltaSince(snap)
		}
		var liveRec, virtRec OpRecord
		live, liveRec = restore(liveMem, live)
		virt, virtRec = restore(virtMem, virt)
		if liveRec != virtRec || live.CacheDigest() != virt.CacheDigest() {
			t.Fatalf("%d B: restores diverged: %+v vs %+v", size, liveRec, virtRec)
		}

		// k = 2: the primed save.
		virt.ReplayOp(saveOp(t, live, image))
		check(2)
	}
}

// TestCacheDigestTracksTagsNotBytes: the digest ignores the key and the
// versions (engines under different keys agree after the same ops) but
// sees every change of which metadata lines are resident.
func TestCacheDigestTracksTagsNotBytes(t *testing.T) {
	_, a := newEngineLines(t, 64, 16)
	memB := dram.New(dram.Skylake8GB())
	b, err := New(memB, 0x1000_0000, 64, [32]byte{9, 9, 9}, 16)
	if err != nil {
		t.Fatal(err)
	}
	empty := a.CacheDigest()
	if b.CacheDigest() != empty {
		t.Fatal("formatted engines under different keys differ in digest")
	}
	image := make([]byte, 64*BlockSize)
	for _, e := range []*Engine{a, b} {
		if err := e.WriteRegion(image); err != nil {
			t.Fatal(err)
		}
	}
	if a.CacheDigest() != b.CacheDigest() {
		t.Fatal("same ops under different keys left different digests")
	}
	if a.CacheDigest() == empty {
		t.Fatal("a region write left the digest of an empty cache")
	}
	for _, e := range []*Engine{a, b} {
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if a.CacheDigest() != empty {
		t.Fatal("a flushed cache does not digest as empty")
	}
	var blk [BlockSize]byte
	if err := a.ReadBlockInto(0, blk[:]); err != nil {
		t.Fatal(err)
	}
	if a.CacheDigest() == empty || a.CacheDigest() == b.CacheDigest() {
		t.Fatal("a read that filled lines did not move the digest")
	}
}
