package mee

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"

	"odrips/internal/dram"
	"odrips/internal/sim"
)

// Stats counts the engine's DRAM traffic in 64-byte blocks, split by kind.
// The context save/restore timing model is driven by these counts.
//
// Every fast path in this package (reusable HMAC states, in-place block IO,
// sequential-walk tree-path reuse) is required to leave these counters
// bit-identical to the straightforward implementation: the §6.3 latencies
// must keep emerging from block counts, not change under optimization.
type Stats struct {
	DataReads   uint64
	DataWrites  uint64
	MetaReads   uint64
	MetaWrites  uint64
	CacheHits   uint64
	CacheMisses uint64
}

// TotalReadBlocks returns all blocks read from DRAM.
func (s Stats) TotalReadBlocks() uint64 { return s.DataReads + s.MetaReads }

// TotalWriteBlocks returns all blocks written to DRAM.
func (s Stats) TotalWriteBlocks() uint64 { return s.DataWrites + s.MetaWrites }

// TotalBlocks returns all DRAM accesses.
func (s Stats) TotalBlocks() uint64 { return s.TotalReadBlocks() + s.TotalWriteBlocks() }

// TransferTime prices s's traffic on mem as a context transfer (§6.3):
// every block the op moved, at the module's write rate for a save and its
// read rate for a restore. It is the one latency rule for every MEE
// context op, real or replayed.
func (s Stats) TransferTime(mem *dram.Module, save bool) sim.Duration {
	return mem.TransferTime(int(s.TotalBlocks())*BlockSize, save)
}

// IntegrityError reports a confidentiality/integrity/freshness violation.
type IntegrityError struct {
	What string
	Addr uint64
}

func (e *IntegrityError) Error() string {
	return fmt.Sprintf("mee: integrity violation: %s at %#x", e.What, e.Addr)
}

// writeWalk tracks an in-progress sequential write walk: consecutive
// WriteBlock calls that land in the same L0 metadata block keep mutating
// the locally held path copies (versions and counters) and defer the
// per-level reseal + cache install until the walk leaves the subtree.
// Intermediate seals are never observable — DRAM and the cache see exactly
// the bytes the unoptimized per-block walk would have produced.
type writeWalk struct {
	active bool
	dirty  bool // a deferred (unsealed, uninstalled) mutation exists
	b      int  // L0 block index the walk covers
}

// readWalk remembers the verified L0 cache line the previous ReadBlockInto
// used, so a contiguous restore re-uses the verified ancestor path instead
// of re-looking it up per block. gen guards against any cache mutation.
type readWalk struct {
	ok   bool
	b    int
	gen  uint64
	line *cacheLine
}

// Engine is the memory encryption engine guarding one protected region.
type Engine struct {
	mem    *dram.Module
	layout Layout

	masterKey [32]byte
	aesBlock  cipher.Block

	rootCounter uint64
	cache       *metaCache

	stats Stats

	// Reusable crypto state and engine-owned scratch buffers. Together
	// they make the steady-state block datapath allocation-free.
	mac     macCtx
	u64Buf  [8]byte // MAC length/index staging
	ctrBuf  [aes.BlockSize]byte
	ksBuf   [aes.BlockSize]byte
	ctBuf   [BlockSize]byte // ciphertext staging (write + read paths)
	padBuf  [BlockSize]byte // zero-padded tail block for WriteRegion
	metaBuf [BlockSize]byte // metadata fetch staging
	pathBuf []pathBlock     // reusable loadPath scratch
	// victimBuf stages evicted cache lines for sealing + write-back; an
	// engine field because slices of it escape through the hash.Hash
	// interface, which would heap-allocate a per-call local.
	victimBuf cacheLine

	walk     writeWalk
	readPath readWalk
	noWalk   bool // test hook: force the per-block slow path
}

// Formatted is the metadata of a freshly formatted region, computed once
// by Format and installed into any number of memory modules by
// NewFormatted. It holds no memory module and is read-only after Format:
// the modules it is installed in read its bytes as their shared base layer
// and copy a block only when they write it, so engines in any number of
// goroutines may be built from one value.
type Formatted struct {
	layout Layout
	key    [32]byte
	// blocks holds every metadata block in address order (level 0 first,
	// then each tree level up to the root), all MACs sealed under the zero
	// counters a fresh region starts with.
	blocks []byte
}

// Layout returns the region layout the metadata was formatted for.
func (f *Formatted) Layout() Layout { return f.layout }

// Format computes the metadata of a fresh region of dataBlocks 64-byte
// blocks based at base under key: every version and counter zero, every
// MAC valid, the root counter zero.
func Format(base uint64, dataBlocks int, key [32]byte) (*Formatted, error) {
	layout, err := PlanLayout(base, dataBlocks)
	if err != nil {
		return nil, err
	}
	f := &Formatted{layout: layout, key: key, blocks: make([]byte, layout.MetadataBytes())}
	// The MAC context is the only engine state a metadata MAC reads.
	e := &Engine{layout: layout}
	macKey := macKeyFor(key)
	e.mac.init(macKey[:])
	for lvl := 0; lvl <= layout.Levels(); lvl++ {
		for idx := 0; idx < layout.levelCount(lvl); idx++ {
			// Every parent counter starts at zero.
			off := e.metaAddr(lvl, idx) - layout.l0Base
			blk := f.blocks[off : off+BlockSize]
			setMacOf(lvl, blk, e.macMeta(payloadOf(lvl, blk), lvl, idx, 0))
		}
	}
	return f, nil
}

// NewFormatted creates an engine over mem whose protected region holds
// f's freshly formatted metadata (all versions zero, counters zero, MACs
// valid). cacheLines sizes the MEE metadata cache (DefaultCacheLines in
// the Skylake-like configuration). It installs f's blocks as mem's shared
// base layer (dram.Module.SetBase), copying nothing, and leaves the
// traffic counters (one metadata write per block), the root counter and
// the (empty) metadata cache exactly as formatting the region in place
// would. The format writes are boot-time traffic; callers that price
// save/restore ResetStats after.
func NewFormatted(mem *dram.Module, f *Formatted, cacheLines int) (*Engine, error) {
	e, err := build(mem, f.layout, f.key, cacheLines, 0)
	if err != nil {
		return nil, err
	}
	if err := mem.SetBase(f.layout.l0Base, f.blocks); err != nil {
		return nil, err
	}
	e.stats.MetaWrites += uint64(len(f.blocks) / BlockSize)
	return e, nil
}

// macKeyFor derives the metadata/data MAC key from the master key.
func macKeyFor(key [32]byte) [32]byte {
	return sha256.Sum256(append([]byte("mee-mac-key"), key[:]...))
}

func build(mem *dram.Module, layout Layout, key [32]byte, cacheLines int, rootCounter uint64) (*Engine, error) {
	if mem == nil {
		return nil, fmt.Errorf("mee: nil memory module")
	}
	if layout.Base+layout.TotalBytes() > mem.Config().CapacityBytes {
		return nil, fmt.Errorf("mee: region [%#x,%#x) exceeds memory capacity", layout.Base, layout.Base+layout.TotalBytes())
	}
	var aesKey [16]byte
	h := sha256.Sum256(append([]byte("mee-aes-key"), key[:]...))
	copy(aesKey[:], h[:16])
	blk, err := aes.NewCipher(aesKey[:])
	if err != nil {
		return nil, err
	}
	macKey := macKeyFor(key)
	e := &Engine{
		mem:         mem,
		layout:      layout,
		masterKey:   key,
		aesBlock:    blk,
		rootCounter: rootCounter,
		cache:       newMetaCache(cacheLines),
		pathBuf:     make([]pathBlock, 0, layout.Levels()+1),
	}
	e.mac.init(macKey[:])
	return e, nil
}

// Layout returns the region layout.
func (e *Engine) Layout() Layout { return e.layout }

// Mem returns the backing memory module (for transfer pricing).
func (e *Engine) Mem() *dram.Module { return e.mem }

// Stats returns a snapshot of the traffic counters. Deferred sequential-
// walk work is accounted eagerly, so the snapshot is exact at every
// WriteBlock/ReadBlockInto boundary.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.CacheHits, s.CacheMisses, _ = e.cache.stats()
	return s
}

// ResetStats zeroes the traffic counters (cache statistics included).
func (e *Engine) ResetStats() {
	e.stats = Stats{}
	e.cache.hits, e.cache.misses, e.cache.writebacks = 0, 0, 0
}

// RootCounter returns the on-chip freshness root.
func (e *Engine) RootCounter() uint64 { return e.rootCounter }

// ---- crypto helpers ----

// xorKeyStream encrypts (or, CTR being an involution, decrypts) one
// 64-byte block with AES-128-CTR under IV = (blockIdx, version), staging
// the counter and keystream in engine-owned buffers. The output is
// bit-identical to cipher.NewCTR(e.aesBlock, iv).XORKeyStream, which
// TestXORKeyStreamMatchesStdlibCTR asserts, without the per-call stream
// allocation. dst and src must not overlap unless equal.
func (e *Engine) xorKeyStream(dst, src []byte, blockIdx int, version uint64) {
	ctr := e.ctrBuf[:]
	binary.LittleEndian.PutUint64(ctr[0:8], uint64(blockIdx))
	binary.LittleEndian.PutUint64(ctr[8:16], version)
	ks := e.ksBuf[:]
	for off := 0; off < BlockSize; off += aes.BlockSize {
		e.aesBlock.Encrypt(ks, ctr)
		for j := 0; j < aes.BlockSize; j++ {
			dst[off+j] = src[off+j] ^ ks[j]
		}
		// CTR mode treats the whole IV as one big-endian counter.
		for k := aes.BlockSize - 1; k >= 0; k-- {
			ctr[k]++
			if ctr[k] != 0 {
				break
			}
		}
	}
}

var (
	dataTag = []byte("data")
	metaTag = []byte("meta")
)

// macU64 streams a little-endian uint64 into the in-progress MAC.
func (e *Engine) macU64(v uint64) {
	binary.LittleEndian.PutUint64(e.u64Buf[:], v)
	e.mac.write(e.u64Buf[:])
}

// macData authenticates a data block's ciphertext bound to its index and
// version.
func (e *Engine) macData(ct []byte, blockIdx int, version uint64) [macSize]byte {
	e.mac.begin()
	e.mac.write(dataTag)
	e.mac.write(ct)
	e.macU64(uint64(blockIdx))
	e.macU64(version)
	return e.mac.finishTrunc()
}

// macMeta authenticates a metadata block's payload bound to its level,
// index, and the parent counter that provides freshness.
func (e *Engine) macMeta(payload []byte, lvl, idx int, parentCtr uint64) [macSize]byte {
	e.mac.begin()
	e.mac.write(metaTag)
	e.mac.write(payload)
	e.macU64(uint64(lvl))
	e.macU64(uint64(idx))
	e.macU64(parentCtr)
	return e.mac.finishTrunc()
}

// ---- metadata block codecs ----
//
// L0 block: 3 x (version u64 | dataMAC 8B) at [0:48], pad [48:56], block
// MAC at [56:64]. Node block (lvl>=1): 7 counters u64 at [0:56], MAC at
// [56:64]. Every byte except the MAC itself is MAC-covered.

func l0Entry(data []byte, slot int) (version uint64, mac []byte) {
	off := slot * 16
	return binary.LittleEndian.Uint64(data[off : off+8]), data[off+8 : off+16]
}

func setL0Entry(data []byte, slot int, version uint64, mac [macSize]byte) {
	off := slot * 16
	binary.LittleEndian.PutUint64(data[off:off+8], version)
	copy(data[off+8:off+16], mac[:])
}

func nodeCounter(data []byte, slot int) uint64 {
	return binary.LittleEndian.Uint64(data[slot*8 : slot*8+8])
}

func setNodeCounter(data []byte, slot int, v uint64) {
	binary.LittleEndian.PutUint64(data[slot*8:slot*8+8], v)
}

func (e *Engine) metaAddr(lvl, idx int) uint64 {
	if lvl == 0 {
		return e.layout.l0Addr(idx)
	}
	return e.layout.nodeAddr(lvl, idx)
}

// payloadOf returns the MAC-covered payload of a metadata block.
func payloadOf(lvl int, data []byte) []byte {
	_ = lvl // uniform layout at every level
	return data[:56]
}

func macOf(lvl int, data []byte) []byte {
	_ = lvl
	return data[56:64]
}

func setMacOf(lvl int, data []byte, mac [macSize]byte) {
	copy(macOf(lvl, data), mac[:])
}

// topLevel returns the index of the root tree level.
func (e *Engine) topLevel() int { return e.layout.Levels() }

// parentCounterOf returns the freshness counter covering (lvl, idx),
// fetching (and verifying) the parent node if needed.
func (e *Engine) parentCounterOf(lvl, idx int) (uint64, error) {
	if lvl == e.topLevel() {
		return e.rootCounter, nil
	}
	parent, err := e.fetchMeta(lvl+1, idx/nodeArity)
	if err != nil {
		return 0, err
	}
	return nodeCounter(parent.data[:], idx%nodeArity), nil
}

// fetchMeta returns a verified, cached metadata block.
func (e *Engine) fetchMeta(lvl, idx int) (*cacheLine, error) {
	addr := e.metaAddr(lvl, idx)
	if ln := e.cache.lookup(addr); ln != nil {
		return ln, nil
	}
	// Verify the parent chain first (recursion terminates at the root).
	// The recursion finishes with metaBuf before this frame stages its own
	// block in it, so one engine-owned buffer serves every level.
	parentCtr, err := e.parentCounterOf(lvl, idx)
	if err != nil {
		return nil, err
	}
	raw := e.metaBuf[:]
	if err := e.mem.ReadBlockInto(addr, raw); err != nil {
		return nil, err
	}
	e.stats.MetaReads++
	want := e.macMeta(payloadOf(lvl, raw), lvl, idx, parentCtr)
	if subtle.ConstantTimeCompare(want[:], macOf(lvl, raw)) != 1 {
		return nil, &IntegrityError{What: fmt.Sprintf("metadata MAC (level %d node %d)", lvl, idx), Addr: addr}
	}
	e.victimBuf = e.cache.fill(addr, raw, lvl, idx, parentCtr, true)
	if e.victimBuf.valid {
		e.sealLine(&e.victimBuf)
		if err := e.mem.Write(e.victimBuf.addr, e.victimBuf.data[:]); err != nil {
			return nil, err
		}
		e.stats.MetaWrites++
	}
	// The fill may have evicted the parent we depend on; that is fine, the
	// returned line is re-looked-up by address.
	ln := e.cache.lookup(addr)
	if ln == nil || ln.addr != addr {
		return nil, fmt.Errorf("mee: cache line vanished after fill (lines too few)")
	}
	return ln, nil
}

// pathBlock is a local, verified copy of one metadata block on the path
// from an L0 block to the tree root. Write operations mutate local copies
// and install them atomically, so the cache never holds a half-updated
// (unsealable) line that could be evicted and fail re-verification.
type pathBlock struct {
	lvl, idx int
	data     [BlockSize]byte

	// Deferred-seal bookkeeping mirrored into the cache line on install
	// (see cacheLine): sealed says whether data[56:64] is a valid MAC,
	// parentCtr is the freshness counter to seal under when it is not.
	sealed    bool
	parentCtr uint64
}

// sealLine computes the deferred MAC of an unsealed metadata line just
// before its bytes become observable (DRAM write-back or flush). Sealing at
// eviction time is byte-identical to sealing at install time: a node's
// covering counter cannot advance without the node itself being
// re-installed with a fresh parentCtr, so parentCtr still holds the value
// an eager implementation would have sealed under.
func (e *Engine) sealLine(ln *cacheLine) {
	if ln.sealed {
		return
	}
	mac := e.macMeta(payloadOf(ln.lvl, ln.data[:]), ln.lvl, ln.idx, ln.parentCtr)
	setMacOf(ln.lvl, ln.data[:], mac)
	ln.sealed = true
}

// loadPath fetches and verifies the metadata path covering L0 block b,
// bottom-up, returning local copies: [L0 b, L1 node, ..., top node]. The
// returned slice is backed by the engine-owned pathBuf scratch.
func (e *Engine) loadPath(b int) ([]pathBlock, error) {
	path := e.pathBuf[:0]
	lvl, idx := 0, b
	for {
		ln, err := e.fetchMeta(lvl, idx)
		if err != nil {
			return nil, err
		}
		// Copy immediately; the line may be evicted later.
		path = append(path, pathBlock{lvl: lvl, idx: idx, data: ln.data, sealed: ln.sealed, parentCtr: ln.parentCtr})
		if lvl == e.topLevel() {
			e.pathBuf = path
			return path, nil
		}
		lvl, idx = lvl+1, idx/nodeArity
	}
}

// installPath writes mutated path copies into the cache as dirty lines,
// writing back any victims. All copies are mutually consistent before the
// first install, so any later refetch verifies cleanly.
func (e *Engine) installPath(path []pathBlock) error {
	for i := range path {
		pb := &path[i]
		addr := e.metaAddr(pb.lvl, pb.idx)
		if ln := e.cache.lookup(addr); ln != nil {
			ln.data = pb.data
			ln.sealed = pb.sealed
			ln.parentCtr = pb.parentCtr
			ln.dirty = true
			continue
		}
		e.victimBuf = e.cache.fill(addr, pb.data[:], pb.lvl, pb.idx, pb.parentCtr, pb.sealed)
		if e.victimBuf.valid {
			e.sealLine(&e.victimBuf)
			if err := e.mem.Write(e.victimBuf.addr, e.victimBuf.data[:]); err != nil {
				return err
			}
			e.stats.MetaWrites++
		}
		if ln := e.cache.lookup(addr); ln != nil {
			ln.dirty = true
		}
	}
	e.cache.gen++
	return nil
}

// startWalk arms the sequential write walk over the just-installed path.
// The fast path is only sound while every path line stays resident, so a
// cache too small (or too aliased) to hold the whole path keeps the engine
// on the per-block slow path.
func (e *Engine) startWalk(b int, path []pathBlock) {
	if e.noWalk {
		return
	}
	for i := range path {
		if e.cache.peek(e.metaAddr(path[i].lvl, path[i].idx)) == nil {
			return
		}
	}
	e.walk = writeWalk{active: true, b: b}
}

// commitWalk installs the locally mutated path into the cache under its
// final counters. The lines go in unsealed: their MACs are computed lazily
// at eviction or flush time (sealLine), which produces the same bytes the
// per-block resealing walk would have — seals depend only on the final
// payloads and counters, and no eviction can occur while a walk is active
// (a walk ends before any cache fill).
func (e *Engine) commitWalk() error {
	if !e.walk.active {
		return nil
	}
	e.walk.active = false
	if !e.walk.dirty {
		return nil
	}
	e.walk.dirty = false
	path := e.pathBuf
	for p := 0; p < len(path)-1; p++ {
		child, node := &path[p], &path[p+1]
		child.sealed = false
		child.parentCtr = nodeCounter(node.data[:], child.idx%nodeArity)
	}
	top := &path[len(path)-1]
	top.sealed = false
	top.parentCtr = e.rootCounter
	// Quiet install: the lookups for these lines were credited when the
	// deferred writes happened, so this must not count again.
	for p := range path {
		pb := &path[p]
		ln := e.cache.peek(e.metaAddr(pb.lvl, pb.idx))
		if ln == nil {
			return fmt.Errorf("mee: sequential-walk path line evicted (internal invariant)")
		}
		ln.data = pb.data
		ln.sealed = false
		ln.parentCtr = pb.parentCtr
		ln.dirty = true
	}
	e.cache.gen++
	return nil
}

// writeBlockFast is WriteBlock for a block whose whole metadata path is
// already held (verified and mutated) by the active sequential walk: bump
// the version and counters locally, write the ciphertext, and defer the
// per-level reseal to commitWalk.
func (e *Engine) writeBlockFast(i, slot int, plaintext []byte) error {
	path := e.pathBuf
	l0 := &path[0]
	version, _ := l0Entry(l0.data[:], slot)
	version++
	e.xorKeyStream(e.ctBuf[:], plaintext, i, version)
	if err := e.mem.Write(e.layout.dataAddr(i), e.ctBuf[:]); err != nil {
		return err
	}
	e.stats.DataWrites++
	setL0Entry(l0.data[:], slot, version, e.macData(e.ctBuf[:], i, version))
	for p := 1; p < len(path); p++ {
		child, node := &path[p-1], &path[p]
		cslot := child.idx % nodeArity
		setNodeCounter(node.data[:], cslot, nodeCounter(node.data[:], cslot)+1)
	}
	e.rootCounter++
	e.walk.dirty = true
	// Accounting parity: the slow path's loadPath and installPath would
	// each have looked up every (resident) path line — all hits.
	e.cache.credit(2 * uint64(len(path)))
	return nil
}

// WriteBlock encrypts and stores one 64-byte plaintext block at index i,
// bumping the freshness counters along the whole path to the on-chip root.
func (e *Engine) WriteBlock(i int, plaintext []byte) error {
	if i < 0 || i >= e.layout.DataBlocks {
		return fmt.Errorf("mee: block index %d out of range [0,%d)", i, e.layout.DataBlocks)
	}
	if len(plaintext) != BlockSize {
		return fmt.Errorf("mee: plaintext length %d, want %d", len(plaintext), BlockSize)
	}
	b, slot := i/entriesPerL0, i%entriesPerL0
	if e.walk.active && e.walk.b == b {
		return e.writeBlockFast(i, slot, plaintext)
	}
	if err := e.commitWalk(); err != nil {
		return err
	}
	path, err := e.loadPath(b)
	if err != nil {
		return err
	}
	// Mutate the local copies: new data version and MAC in the L0 entry...
	l0 := &path[0]
	version, _ := l0Entry(l0.data[:], slot)
	version++
	e.xorKeyStream(e.ctBuf[:], plaintext, i, version)
	if err := e.mem.Write(e.layout.dataAddr(i), e.ctBuf[:]); err != nil {
		return err
	}
	e.stats.DataWrites++
	setL0Entry(l0.data[:], slot, version, e.macData(e.ctBuf[:], i, version))
	// ...then bump one counter per level, leaving each child unsealed with
	// its new covering counter recorded: the reseal is deferred until the
	// line's bytes become observable (eviction or flush).
	for p := 1; p < len(path); p++ {
		child, node := &path[p-1], &path[p]
		cslot := child.idx % nodeArity
		newCtr := nodeCounter(node.data[:], cslot) + 1
		setNodeCounter(node.data[:], cslot, newCtr)
		child.sealed = false
		child.parentCtr = newCtr
	}
	// The top node seals under a fresh on-chip root counter.
	e.rootCounter++
	top := &path[len(path)-1]
	top.sealed = false
	top.parentCtr = e.rootCounter
	if err := e.installPath(path); err != nil {
		return err
	}
	e.startWalk(b, path)
	return nil
}

// ReadBlockInto fetches, verifies, and decrypts data block i into
// dst[:BlockSize] without allocating. dst must hold at least BlockSize
// bytes and must not alias engine or module internals. A block that was
// never written reads as an error (version 0 means "not present").
func (e *Engine) ReadBlockInto(i int, dst []byte) error {
	if i < 0 || i >= e.layout.DataBlocks {
		return fmt.Errorf("mee: block index %d out of range [0,%d)", i, e.layout.DataBlocks)
	}
	if len(dst) < BlockSize {
		return fmt.Errorf("mee: read destination of %d bytes, need %d", len(dst), BlockSize)
	}
	dst = dst[:BlockSize]
	if err := e.commitWalk(); err != nil {
		return err
	}
	b, slot := i/entriesPerL0, i%entriesPerL0
	var l0 *cacheLine
	if e.readPath.ok && e.readPath.b == b && e.readPath.gen == e.cache.gen && !e.noWalk {
		// Sequential-walk reuse: the ancestor path verified for the
		// previous block still covers this one and the cache is untouched
		// since. Credit the lookup the slow path would have hit.
		e.cache.credit(1)
		l0 = e.readPath.line
	} else {
		var err error
		l0, err = e.fetchMeta(0, b)
		if err != nil {
			return err
		}
		e.readPath = readWalk{ok: true, b: b, gen: e.cache.gen, line: l0}
	}
	version, wantMAC := l0Entry(l0.data[:], slot)
	if version == 0 {
		return fmt.Errorf("mee: block %d never written", i)
	}
	// Copy the expected MAC out before any further cache activity.
	var want [macSize]byte
	copy(want[:], wantMAC)
	if err := e.mem.ReadBlockInto(e.layout.dataAddr(i), e.ctBuf[:]); err != nil {
		return err
	}
	e.stats.DataReads++
	got := e.macData(e.ctBuf[:], i, version)
	if subtle.ConstantTimeCompare(got[:], want[:]) != 1 {
		return &IntegrityError{What: fmt.Sprintf("data MAC (block %d)", i), Addr: e.layout.dataAddr(i)}
	}
	e.xorKeyStream(dst, e.ctBuf[:], i, version)
	return nil
}

// WriteRegion writes data starting at block 0, zero-padding the tail of the
// final block.
func (e *Engine) WriteRegion(data []byte) error {
	need := (len(data) + BlockSize - 1) / BlockSize
	if need > e.layout.DataBlocks {
		return fmt.Errorf("mee: %d bytes exceed region of %d blocks", len(data), e.layout.DataBlocks)
	}
	for i := 0; i < need; i++ {
		chunk := data[i*BlockSize:]
		if len(chunk) >= BlockSize {
			if err := e.WriteBlock(i, chunk[:BlockSize]); err != nil {
				return err
			}
			continue
		}
		for j := range e.padBuf {
			e.padBuf[j] = 0
		}
		copy(e.padBuf[:], chunk)
		if err := e.WriteBlock(i, e.padBuf[:]); err != nil {
			return err
		}
	}
	return nil
}

// ReadRegionInto reads n bytes starting at block 0 into the caller-provided
// buffer, which must hold the full ceil(n/BlockSize) blocks. It returns
// dst[:n] and performs no allocations.
func (e *Engine) ReadRegionInto(dst []byte, n int) ([]byte, error) {
	need := (n + BlockSize - 1) / BlockSize
	if need > e.layout.DataBlocks {
		return nil, fmt.Errorf("mee: %d bytes exceed region of %d blocks", n, e.layout.DataBlocks)
	}
	if len(dst) < need*BlockSize {
		return nil, fmt.Errorf("mee: region read destination of %d bytes, need %d", len(dst), need*BlockSize)
	}
	for i := 0; i < need; i++ {
		if err := e.ReadBlockInto(i, dst[i*BlockSize:(i+1)*BlockSize]); err != nil {
			return nil, err
		}
	}
	return dst[:n], nil
}

// ReadRegion reads n bytes starting at block 0 into a fresh buffer.
func (e *Engine) ReadRegion(n int) ([]byte, error) {
	need := (n + BlockSize - 1) / BlockSize
	if need > e.layout.DataBlocks {
		return nil, fmt.Errorf("mee: %d bytes exceed region of %d blocks", n, e.layout.DataBlocks)
	}
	return e.ReadRegionInto(make([]byte, need*BlockSize), n)
}

// Flush writes back all dirty metadata. Call before removing engine power
// (DRIPS entry): afterwards DRAM holds a complete, self-consistent image
// rooted in the on-chip counter.
func (e *Engine) Flush() error {
	if err := e.commitWalk(); err != nil {
		return err
	}
	// Materialize every deferred seal before the lines hit DRAM.
	for i := range e.cache.lines {
		if ln := &e.cache.lines[i]; ln.valid && ln.dirty {
			e.sealLine(ln)
		}
	}
	return e.cache.flushDirty(func(addr uint64, data []byte) error {
		if err := e.mem.Write(addr, data); err != nil {
			return err
		}
		e.stats.MetaWrites++
		return nil
	})
}
