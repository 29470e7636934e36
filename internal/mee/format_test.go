package mee

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"odrips/internal/dram"
)

// formatInPlace is the reference format: an engine over a fresh module
// that computes and writes each metadata block one at a time, root level
// first, exactly as the engine formatted its region before Format and
// NewFormatted split the work.
func formatInPlace(t *testing.T, mem *dram.Module, base uint64, dataBlocks int, key [32]byte, lines int) *Engine {
	t.Helper()
	layout, err := PlanLayout(base, dataBlocks)
	if err != nil {
		t.Fatal(err)
	}
	e, err := build(mem, layout, key, lines, 0)
	if err != nil {
		t.Fatal(err)
	}
	for lvl := e.topLevel(); lvl >= 0; lvl-- {
		for idx := 0; idx < layout.levelCount(lvl); idx++ {
			var data [BlockSize]byte
			setMacOf(lvl, data[:], e.macMeta(payloadOf(lvl, data[:]), lvl, idx, 0))
			if err := mem.Write(e.metaAddr(lvl, idx), data[:]); err != nil {
				t.Fatal(err)
			}
			e.stats.MetaWrites++
		}
	}
	return e
}

// engineView is everything a freshly built or just-operated engine
// exposes: its region's bytes, traffic counters, freshness root, cache
// tags and the module's block traffic.
type engineView struct {
	Region          []byte
	Stats           Stats
	Root            uint64
	Cache           uint64
	DRAMR, DRAMW    uint64
	State, Restored []byte
}

func viewOf(t *testing.T, mem *dram.Module, e *Engine) engineView {
	t.Helper()
	r, w := mem.Stats()
	return engineView{
		Region: regionBytes(t, mem, e),
		Stats:  e.Stats(),
		Root:   e.RootCounter(),
		Cache:  e.CacheDigest(),
		DRAMR:  r,
		DRAMW:  w,
	}
}

// roundTrip runs a context save, a power cycle with the engine dropped,
// and a restore, and returns the view after each half.
func roundTrip(t *testing.T, mem *dram.Module, e *Engine, image []byte) (saved, restored engineView) {
	t.Helper()
	if err := e.WriteRegion(image); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	saved = viewOf(t, mem, e)
	saved.State = e.ExportState()
	if err := mem.SetState(dram.SelfRefresh); err != nil {
		t.Fatal(err)
	}
	if err := mem.SetState(dram.Active); err != nil {
		t.Fatal(err)
	}
	e2, err := ImportState(mem, saved.State, DefaultCacheLines)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e2.ReadRegion(len(image))
	if err != nil {
		t.Fatal(err)
	}
	restored = viewOf(t, mem, e2)
	restored.Restored = got
	return saved, restored
}

// TestNewFormattedEqualsNew: an engine built from a shared Formatted — the
// second module it is written into, as a platform template's second
// platform is — holds the same region bytes, traffic counters, root and
// cache as New and as the reference in-place format, and a save/restore
// round trip afterwards leaves all three identical again.
func TestNewFormattedEqualsNew(t *testing.T) {
	const base = 0x1000_0000
	for _, size := range []int{40*BlockSize - 17, 3200 * BlockSize} {
		blocks := (size + BlockSize - 1) / BlockSize
		image := make([]byte, size)
		rand.New(rand.NewSource(int64(size))).Read(image)

		refMem := dram.New(dram.Skylake8GB())
		ref := formatInPlace(t, refMem, base, blocks, testKey, DefaultCacheLines)

		newMem := dram.New(dram.Skylake8GB())
		viaNew, err := New(newMem, base, blocks, testKey, DefaultCacheLines)
		if err != nil {
			t.Fatal(err)
		}

		f, err := Format(base, blocks, testKey)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewFormatted(dram.New(dram.Skylake8GB()), f, DefaultCacheLines); err != nil {
			t.Fatal(err)
		}
		fmtMem := dram.New(dram.Skylake8GB())
		viaFmt, err := NewFormatted(fmtMem, f, DefaultCacheLines)
		if err != nil {
			t.Fatal(err)
		}

		want := viewOf(t, refMem, ref)
		if md := uint64(ref.Layout().MetadataBytes() / BlockSize); want.Stats.MetaWrites != md {
			t.Fatalf("size %d: reference format wrote %d metadata blocks, layout has %d", size, want.Stats.MetaWrites, md)
		}
		for name, c := range map[string]struct {
			mem *dram.Module
			e   *Engine
		}{"New": {newMem, viaNew}, "NewFormatted": {fmtMem, viaFmt}} {
			if got := viewOf(t, c.mem, c.e); !reflect.DeepEqual(got, want) {
				t.Errorf("size %d: %s after format: stats %+v root %d cache %#x dram %d/%d, region equal %v; want stats %+v root %d cache %#x dram %d/%d",
					size, name, got.Stats, got.Root, got.Cache, got.DRAMR, got.DRAMW, bytes.Equal(got.Region, want.Region),
					want.Stats, want.Root, want.Cache, want.DRAMR, want.DRAMW)
			}
		}

		wantSaved, wantRestored := roundTrip(t, refMem, ref, image)
		if !bytes.Equal(wantRestored.Restored, image) {
			t.Fatalf("size %d: reference round trip restored different bytes", size)
		}
		for name, c := range map[string]struct {
			mem *dram.Module
			e   *Engine
		}{"New": {newMem, viaNew}, "NewFormatted": {fmtMem, viaFmt}} {
			saved, restored := roundTrip(t, c.mem, c.e, image)
			if !reflect.DeepEqual(saved, wantSaved) {
				t.Errorf("size %d: %s save differs: stats %+v root %d, want %+v root %d", size, name, saved.Stats, saved.Root, wantSaved.Stats, wantSaved.Root)
			}
			if !reflect.DeepEqual(restored, wantRestored) {
				t.Errorf("size %d: %s restore differs: stats %+v, want %+v", size, name, restored.Stats, wantRestored.Stats)
			}
		}
	}
}
