package mee

import "fmt"

// This file is the MEE side of the platform fast-forward engine
// (DESIGN.md §12). The connected-standby steady state drives the engine
// through a strictly periodic op sequence — save (WriteRegion+Flush) from
// the canonical post-restore state, then restore (fresh ImportState +
// sequential ReadRegionInto) — whose externally observable effects (traffic
// counters, hence latency, and the root-counter advance) are identical
// every period. Once one period has been recorded, later periods can skip
// the crypto and DRAM traffic entirely and advance the counters
// arithmetically (ReplayOp), leaving DRAM bytes and the metadata cache
// stale. Before the next *real* operation the caller must rebuild the
// canonical state: ReplayMaterialize regenerates the exact DRAM bytes the
// skipped saves would have produced (a save's output is a pure function of
// the starting root counter and the image), and ReplayWarm re-executes the
// skipped sequential read to rebuild the canonical post-restore cache.

// OpCapture is a point-in-time snapshot of the engine's observable
// counters, taken before a region-sized operation so its delta can be
// recorded.
type OpCapture struct {
	root       uint64
	stats      Stats
	writebacks uint64
}

// OpRecord is the recorded effect of one region-sized operation: the
// counter deltas a replay must apply to be observationally identical to
// re-running the op.
type OpRecord struct {
	RootDelta  uint64
	Stats      Stats  // merged engine+cache traffic delta
	Writebacks uint64 // cache write-back delta (internal-counter parity)
}

// CaptureOp snapshots the observable counters.
func (e *Engine) CaptureOp() OpCapture {
	_, _, wb := e.cache.stats()
	return OpCapture{root: e.rootCounter, stats: e.Stats(), writebacks: wb}
}

// DeltaSince returns the counter movement since the capture.
func (e *Engine) DeltaSince(c OpCapture) OpRecord {
	s := e.Stats()
	_, _, wb := e.cache.stats()
	return OpRecord{
		RootDelta: e.rootCounter - c.root,
		Stats: Stats{
			DataReads:   s.DataReads - c.stats.DataReads,
			DataWrites:  s.DataWrites - c.stats.DataWrites,
			MetaReads:   s.MetaReads - c.stats.MetaReads,
			MetaWrites:  s.MetaWrites - c.stats.MetaWrites,
			CacheHits:   s.CacheHits - c.stats.CacheHits,
			CacheMisses: s.CacheMisses - c.stats.CacheMisses,
		},
		Writebacks: wb - c.writebacks,
	}
}

// CacheDigest summarizes the engine state a region op's traffic depends
// on: the metadata cache's line count, valid and dirty bits and tags, and
// whether a sequential write walk is in flight. The root counter, the
// traffic counters and every byte are left out, since they vary with the
// key and the version but never change the traffic. Two engines over one
// geometry with equal digests complete a region op with identical
// OpRecords, which is what lets an op record be shared across platforms.
func (e *Engine) CacheDigest() uint64 {
	d := e.cache.digest()
	if e.walk.active {
		d = ^d
	}
	return d
}

// ReplayOp advances the observable counters as if the recorded operation
// had run, without touching DRAM or the metadata cache contents. The DRAM
// bytes (for a save) and the cache (for either op) are left stale; the
// caller must ReplayMaterialize/ReplayWarm before the next real operation.
func (e *Engine) ReplayOp(r OpRecord) {
	e.rootCounter += r.RootDelta
	e.stats.DataReads += r.Stats.DataReads
	e.stats.DataWrites += r.Stats.DataWrites
	e.stats.MetaReads += r.Stats.MetaReads
	e.stats.MetaWrites += r.Stats.MetaWrites
	e.cache.hits += r.Stats.CacheHits
	e.cache.misses += r.Stats.CacheMisses
	e.cache.writebacks += r.Writebacks
}

// ReplayAdvanceRoot advances only the freshness root, for whole-cycle
// replays where the engine's per-instance traffic counters are already at
// their canonical (periodic) values.
func (e *Engine) ReplayAdvanceRoot(delta uint64) { e.rootCounter += delta }

// ReplayMaterialize rebuilds the canonical DRAM image that the replayed
// saves would have left, by direct construction. The engine's only writer
// is the periodic full-region sequential save, so after k saves (k =
// rootCounter / DataBlocks) the canonical state is uniform: every data
// block i holds AES-CTR(plaintext_i) under version k, every L0 entry is
// (k, macData), every node counter is k x the data blocks beneath its
// child, every metadata MAC is sealed under its parent's canonical
// counter, and the L0 pad bytes stay zero exactly as format left them.
// Building that directly costs one save's worth of crypto regardless of
// how many saves were skipped. The bytes are installed as stored contents
// (dram.Module.SetContents), not as bus writes, so materializing is legal
// while the module sits in self-refresh and moves no DRAM traffic counter;
// the engine's counters are untouched too (ReplayOp already advanced them)
// and the metadata cache is emptied — the canonical post-save state.
func (e *Engine) ReplayMaterialize(image []byte) error {
	n := e.layout.DataBlocks
	if e.rootCounter == 0 || e.rootCounter%uint64(n) != 0 {
		return fmt.Errorf("mee: materialize at non-periodic root %d (blocks %d)", e.rootCounter, n)
	}
	k := e.rootCounter / uint64(n)
	need := (len(image) + BlockSize - 1) / BlockSize
	if need != n {
		return fmt.Errorf("mee: materialize image of %d blocks over region of %d", need, n)
	}

	// Data blocks and their entry MACs.
	macs := make([][macSize]byte, n)
	for i := 0; i < n; i++ {
		chunk := image[i*BlockSize:]
		if len(chunk) >= BlockSize {
			e.xorKeyStream(e.ctBuf[:], chunk[:BlockSize], i, k)
		} else {
			for j := range e.padBuf {
				e.padBuf[j] = 0
			}
			copy(e.padBuf[:], chunk)
			e.xorKeyStream(e.ctBuf[:], e.padBuf[:], i, k)
		}
		if err := e.mem.SetContents(e.layout.dataAddr(i), e.ctBuf[:]); err != nil {
			return err
		}
		macs[i] = e.macData(e.ctBuf[:], i, k)
	}

	// L0 blocks: entries under version k, sealed under the L1 counter
	// covering them (k x entries in the block).
	under := make([]uint64, e.layout.L0Blocks)
	for b := 0; b < e.layout.L0Blocks; b++ {
		var data [BlockSize]byte
		entries := n - b*entriesPerL0
		if entries > entriesPerL0 {
			entries = entriesPerL0
		}
		for slot := 0; slot < entries; slot++ {
			setL0Entry(data[:], slot, k, macs[b*entriesPerL0+slot])
		}
		under[b] = uint64(entries)
		mac := e.macMeta(payloadOf(0, data[:]), 0, b, k*under[b])
		setMacOf(0, data[:], mac)
		if err := e.mem.SetContents(e.layout.l0Addr(b), data[:]); err != nil {
			return err
		}
	}

	// Counter-tree nodes, bottom-up; the top node seals under the root.
	for lvl := 1; lvl <= e.layout.Levels(); lvl++ {
		nodes := e.layout.LevelNodes[lvl-1]
		next := make([]uint64, nodes)
		for j := 0; j < nodes; j++ {
			var data [BlockSize]byte
			var sum uint64
			for slot := 0; slot < nodeArity; slot++ {
				child := j*nodeArity + slot
				if child >= len(under) {
					break
				}
				setNodeCounter(data[:], slot, k*under[child])
				sum += under[child]
			}
			next[j] = sum
			mac := e.macMeta(payloadOf(lvl, data[:]), lvl, j, k*sum)
			setMacOf(lvl, data[:], mac)
			if err := e.mem.SetContents(e.layout.nodeAddr(lvl, j), data[:]); err != nil {
				return err
			}
		}
		under = next
	}

	// Canonical post-save cache state: empty, no walk in flight.
	for i := range e.cache.lines {
		e.cache.lines[i].valid = false
		e.cache.lines[i].dirty = false
	}
	e.cache.gen++
	e.walk = writeWalk{}
	e.readPath = readWalk{}
	return nil
}

// ReplayWarm re-executes the sequential region read a replayed restore
// skipped, rebuilding the canonical post-restore metadata cache from
// (materialized) canonical DRAM without advancing the observable counters.
// dst is caller scratch sized for n bytes of region data.
func (e *Engine) ReplayWarm(dst []byte, n int) error {
	snap := e.CaptureOp()
	if _, err := e.ReadRegionInto(dst, n); err != nil {
		return err
	}
	e.stats = Stats{
		DataReads:  snap.stats.DataReads,
		DataWrites: snap.stats.DataWrites,
		MetaReads:  snap.stats.MetaReads,
		MetaWrites: snap.stats.MetaWrites,
	}
	e.cache.hits = snap.stats.CacheHits
	e.cache.misses = snap.stats.CacheMisses
	e.cache.writebacks = snap.writebacks
	return nil
}
