package mee

// DefaultCacheLines is the standard MEE metadata cache size (256 lines of
// 64 B = 16 KiB). With this capacity the 200 KB context save prices out at
// ~19 us and the cold restore at ~14 us on DDR3L-1600, matching §6.3.
const DefaultCacheLines = 256

// metaCache is the MEE metadata cache: a direct-mapped, write-back cache of
// 64-byte metadata blocks keyed by DRAM address. It exists to absorb
// counter-tree traffic (Gueron §5.3); its hit rate is what keeps the
// context-transfer overhead near the paper's measured 18/13 µs.
type metaCache struct {
	lines []cacheLine

	hits, misses, writebacks uint64

	// gen counts line mutations (fills, installs, flushes). The engine's
	// sequential-walk fast paths stamp it when they capture a line pointer
	// and bail out of the fast path once it moves.
	gen uint64
}

type cacheLine struct {
	valid bool
	dirty bool
	addr  uint64
	data  [BlockSize]byte

	// Deferred-seal bookkeeping (engine metadata, not modeled bytes). A
	// line's MAC field is only observable when the line leaves the cache
	// for DRAM, and its covering counter cannot change without the line
	// itself being re-touched (any write through the node re-installs it),
	// so the engine seals lazily: sealed marks whether data[56:64] holds a
	// valid MAC, parentCtr records the freshness counter to seal under,
	// and lvl/idx identify the node for the MAC's level/index binding.
	sealed    bool
	parentCtr uint64
	lvl, idx  int
}

func newMetaCache(lines int) *metaCache {
	if lines <= 0 {
		lines = 1
	}
	return &metaCache{lines: make([]cacheLine, lines)}
}

func (c *metaCache) index(addr uint64) int {
	return int((addr / BlockSize) % uint64(len(c.lines)))
}

// lookup returns the cached copy of addr, or nil, counting a hit or miss.
func (c *metaCache) lookup(addr uint64) *cacheLine {
	ln := &c.lines[c.index(addr)]
	if ln.valid && ln.addr == addr {
		c.hits++
		return ln
	}
	c.misses++
	return nil
}

// peek is lookup without touching the hit/miss counters. The engine's
// sequential-walk fast path uses it to test residency and to install
// deferred path copies whose lookups were already accounted for.
func (c *metaCache) peek(addr uint64) *cacheLine {
	ln := &c.lines[c.index(addr)]
	if ln.valid && ln.addr == addr {
		return ln
	}
	return nil
}

// credit adds n cache hits without performing lookups. The sequential-walk
// fast path skips lookups it has proven would hit; crediting them keeps the
// Stats counters bit-identical to the unoptimized walk.
func (c *metaCache) credit(n uint64) { c.hits += n }

// fill installs data for addr, returning any dirty victim that must be
// written back (victim.valid == false when no write-back is needed). The
// lvl/idx/parentCtr/sealed arguments carry the deferred-seal bookkeeping.
func (c *metaCache) fill(addr uint64, data []byte, lvl, idx int, parentCtr uint64, sealed bool) (victim cacheLine) {
	ln := &c.lines[c.index(addr)]
	if ln.valid && ln.dirty && ln.addr != addr {
		victim = *ln
		c.writebacks++
	}
	ln.valid = true
	ln.dirty = false
	ln.addr = addr
	copy(ln.data[:], data)
	ln.lvl, ln.idx = lvl, idx
	ln.parentCtr = parentCtr
	ln.sealed = sealed
	c.gen++
	return victim
}

// flushDirty invokes fn on every dirty line in index order, then
// invalidates the whole cache (engine power-down path). The caller must
// have sealed all dirty lines first. Write-back accounting happens up
// front so the counters match the historical collect-then-write behavior
// even if fn fails mid-way.
func (c *metaCache) flushDirty(fn func(addr uint64, data []byte) error) error {
	for i := range c.lines {
		if ln := &c.lines[i]; ln.valid && ln.dirty {
			c.writebacks++
		}
	}
	var firstErr error
	for i := range c.lines {
		ln := &c.lines[i]
		if firstErr == nil && ln.valid && ln.dirty {
			firstErr = fn(ln.addr, ln.data[:])
		}
		ln.valid = false
		ln.dirty = false
	}
	c.gen++
	return firstErr
}

// digest hashes what a region op's traffic depends on: the line count
// and each line's valid and dirty bits and tag, in index order (the cache
// is direct-mapped, so the index is its whole replacement order). Line
// contents are left out: they vary with the key and the versions, which
// never change which lookups hit. FNV-1a over 64-bit words.
func (c *metaCache) digest() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * prime }
	mix(uint64(len(c.lines)))
	for i := range c.lines {
		ln := &c.lines[i]
		var bits uint64
		if ln.valid {
			bits |= 1
		}
		if ln.dirty {
			bits |= 2
		}
		mix(bits)
		if ln.valid {
			mix(ln.addr)
		}
	}
	return h
}

// stats returns hits, misses, writebacks.
func (c *metaCache) stats() (hits, misses, writebacks uint64) {
	return c.hits, c.misses, c.writebacks
}
