// Package dram models the platform main memory: a DDR3L module with
// self-refresh (the baseline of Table 1), and the phase-change-memory (PCM)
// variant evaluated in §8.3 (Fig. 6(d)), which retains data with no refresh
// and no CKE drive.
//
// The module stores real bytes (sparse, 64-byte blocks) so that the
// SGX-protected context region holds actual ciphertext, and volatility is
// honest: powering a DDR3L module off destroys its contents, while PCM
// retains them. A module may also read through to a shared read-only base
// layer (SetBase): contents every module of a kind starts with, which each
// module overlays block by block as it writes, never copying the rest.
package dram

import (
	"fmt"

	"odrips/internal/sim"
)

// BlockSize is the access granularity in bytes (one cache line).
const BlockSize = 64

// Technology selects the memory technology.
type Technology int

const (
	// DDR3L is the baseline volatile DRAM (needs self-refresh + CKE).
	DDR3L Technology = iota
	// PCM is non-volatile phase-change memory used as main memory.
	PCM
)

var techNames = [...]string{"DDR3L", "PCM"}

// String returns the technology name.
func (t Technology) String() string {
	if t < 0 || int(t) >= len(techNames) {
		return fmt.Sprintf("Technology(%d)", int(t))
	}
	return techNames[t]
}

// PowerState is the module power state.
type PowerState int

const (
	// Active: normal operation, reads/writes allowed.
	Active PowerState = iota
	// SelfRefresh: contents retained (DDR3L refreshes itself with CKE held
	// low; PCM simply idles), array inaccessible.
	SelfRefresh
	// PoweredOff: supply removed. DDR3L loses contents; PCM retains them.
	PoweredOff
)

var stateNames = [...]string{"active", "self-refresh", "off"}

// String returns the state name.
func (s PowerState) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("PowerState(%d)", int(s))
	}
	return stateNames[s]
}

// Config describes a memory module.
type Config struct {
	Tech          Technology
	CapacityBytes uint64
	TransferMTps  int // e.g. 1600 for DDR3L-1600 ("1.6 GHz" in the paper)
	Channels      int
	BytesPerBeat  int // bus width per channel in bytes
}

// Skylake8GB returns the paper's Table 1 memory configuration: 8 GB
// dual-channel DDR3L-1600.
func Skylake8GB() Config {
	return Config{Tech: DDR3L, CapacityBytes: 8 << 30, TransferMTps: 1600, Channels: 2, BytesPerBeat: 8}
}

// Module is one memory module with sparse block-addressed contents: the
// blocks it wrote (the overlay), over an optional shared base layer.
type Module struct {
	cfg    Config
	state  PowerState
	cke    bool // CKE pin held (DDR3L self-refresh requires it)
	blocks map[uint64][]byte

	// base is the read-only base layer, covering [baseAddr,
	// baseAddr+len(base)): a block the overlay lacks reads from it. The
	// module never writes it, so any number of modules share one slice.
	base     []byte
	baseAddr uint64

	// spare is unclaimed slab the overlay carves new blocks from, so
	// block-at-a-time writes into fresh memory allocate once per slab,
	// not once per block. It is never written before it is carved.
	spare []byte

	// OnDraw, if non-nil, receives the new nominal draw in mW on power
	// state changes.
	OnDraw func(mW float64)
}

// New creates a module in the Active state with CKE asserted.
func New(cfg Config) *Module {
	if cfg.CapacityBytes == 0 || cfg.TransferMTps <= 0 || cfg.Channels <= 0 || cfg.BytesPerBeat <= 0 {
		panic(fmt.Sprintf("dram: invalid config %+v", cfg))
	}
	return &Module{cfg: cfg, state: Active, cke: true, blocks: make(map[uint64][]byte)}
}

// Config returns the module configuration.
func (m *Module) Config() Config { return m.cfg }

// State returns the current power state.
func (m *Module) State() PowerState { return m.state }

// CKE reports whether the CKE pin is held.
func (m *Module) CKE() bool { return m.cke }

// NonVolatile reports whether contents survive power-off.
func (m *Module) NonVolatile() bool { return m.cfg.Tech == PCM }

// NeedsSelfRefresh reports whether retention in idle requires self-refresh
// (and therefore a held CKE pin).
func (m *Module) NeedsSelfRefresh() bool { return m.cfg.Tech == DDR3L }

// PeakBandwidth returns the peak transfer bandwidth in bytes/second.
func (m *Module) PeakBandwidth() float64 {
	return float64(m.cfg.TransferMTps) * 1e6 * float64(m.cfg.Channels) * float64(m.cfg.BytesPerBeat)
}

// Technology-dependent transfer derating and fixed pipeline latencies.
// DDR3L sustains ~85% of peak on streaming transfers; PCM reads slower and
// writes much slower than DRAM (§8.3; PCM write latency is the well-known
// penalty of the technology).
func (m *Module) effBandwidth(write bool) float64 {
	bw := m.PeakBandwidth()
	switch m.cfg.Tech {
	case DDR3L:
		return bw * 0.85
	default: // PCM
		if write {
			return bw * 0.15
		}
		return bw * 0.55
	}
}

// fixed per-transfer pipeline setup latencies.
func (m *Module) fixedLatency(write bool) sim.Duration {
	if write {
		return 2 * sim.Microsecond
	}
	return sim.Microsecond
}

// TransferTime returns the streaming transfer latency for n bytes.
func (m *Module) TransferTime(n int, write bool) sim.Duration {
	if n <= 0 {
		return 0
	}
	return m.fixedLatency(write) + sim.FromSeconds(float64(n)/m.effBandwidth(write))
}

// IdleDrawMW returns the nominal retention draw per power state: the DDR3L
// self-refresh power for the configured capacity, or the PCM standby draw
// (array leakage only; no refresh).
func (m *Module) IdleDrawMW(s PowerState) float64 {
	gib := float64(m.cfg.CapacityBytes) / float64(1<<30)
	switch {
	case s == PoweredOff:
		return 0
	case s == Active:
		// Active standby (CKE high, no traffic): calibrated to the C0
		// platform budget; scales with capacity and, weakly, with the
		// interface rate (§8.2: lower DRAM frequency trims active power).
		rate := 0.15 + 0.85*float64(m.cfg.TransferMTps)/1600
		if m.cfg.Tech == PCM {
			return 28 * gib * rate
		}
		return 35 * gib * rate
	case m.cfg.Tech == PCM:
		// PCM idle: no refresh; controller/array standby only.
		return 0.55 * gib
	default:
		// DDR3L self-refresh: ~1.55 mW/GiB nominal -> 12.4 mW for 8 GiB.
		return 1.55 * gib
	}
}

// SetCKE drives the CKE pin. Dropping CKE while a DDR3L module is in
// self-refresh loses the contents: self-refresh requires the pin held low
// by a powered driver (Fig. 1(a), component 6).
func (m *Module) SetCKE(held bool) {
	if m.cke == held {
		return
	}
	m.cke = held
	if !held && m.state == SelfRefresh && m.NeedsSelfRefresh() {
		m.destroy()
	}
}

// SetState transitions the power state, enforcing technology rules.
func (m *Module) SetState(s PowerState) error {
	if s == m.state {
		return nil
	}
	if s == SelfRefresh && m.NeedsSelfRefresh() && !m.cke {
		return fmt.Errorf("dram: self-refresh entry without CKE held")
	}
	if m.state == PoweredOff && s == SelfRefresh {
		return fmt.Errorf("dram: cannot enter self-refresh from power-off")
	}
	if s == PoweredOff && !m.NonVolatile() {
		m.destroy()
	}
	m.state = s
	if m.OnDraw != nil {
		m.OnDraw(m.IdleDrawMW(s))
	}
	return nil
}

// destroy loses the contents: the overlay and the base layer alike.
func (m *Module) destroy() {
	m.blocks = make(map[uint64][]byte)
	m.base = nil
}

// slabBlocks is the least number of blocks one overlay allocation holds.
const slabBlocks = 64

// carve returns a fresh zeroed block of the overlay's slab, allocating a
// slab of at least want bytes when the spare one is used up.
func (m *Module) carve(want int) []byte {
	if len(m.spare) == 0 {
		m.spare = make([]byte, max(want, slabBlocks*BlockSize))
	}
	blk := m.spare[:BlockSize:BlockSize]
	m.spare = m.spare[BlockSize:]
	return blk
}

// baseBlock returns the base layer's block at the aligned addr, or nil
// when the base does not cover it.
func (m *Module) baseBlock(addr uint64) []byte {
	if addr < m.baseAddr || addr-m.baseAddr >= uint64(len(m.base)) {
		return nil
	}
	off := addr - m.baseAddr
	return m.base[off : off+BlockSize : off+BlockSize]
}

// block returns the contents of the aligned block at addr: the overlay's,
// else the base layer's, else nil for a never-written block. The result
// is read-only to callers: it may be the shared base.
func (m *Module) block(addr uint64) []byte {
	if blk, ok := m.blocks[addr]; ok {
		return blk
	}
	return m.baseBlock(addr)
}

// SetBase installs data (block-aligned) at addr as the module's shared
// base layer: the module reads it where it has written nothing itself and
// never writes it, so data must not change afterwards and may back any
// number of modules at once. It is the bulk install of contents every
// module of a kind starts with (a formatted MEE tree), and it counts as
// writing them: the module must be Active. A module that already holds
// contents stores data into its overlay instead, as Write would, so a
// base is only ever installed under an empty overlay.
func (m *Module) SetBase(addr uint64, data []byte) error {
	if err := m.checkAccess(addr, len(data)); err != nil {
		return err
	}
	if len(m.blocks) > 0 || m.base != nil {
		m.store(addr, data)
		return nil
	}
	m.base, m.baseAddr = data, addr
	return nil
}

func (m *Module) checkAccess(addr uint64, n int) error {
	if m.state != Active {
		return fmt.Errorf("dram: access in state %s", m.state)
	}
	return m.checkRange(addr, n)
}

// checkRange enforces block alignment and capacity on [addr, addr+n).
func (m *Module) checkRange(addr uint64, n int) error {
	if addr%BlockSize != 0 || n%BlockSize != 0 {
		return fmt.Errorf("dram: unaligned access addr=%#x len=%d", addr, n)
	}
	if addr+uint64(n) > m.cfg.CapacityBytes {
		return fmt.Errorf("dram: access [%#x,%#x) beyond capacity %#x", addr, addr+uint64(n), m.cfg.CapacityBytes)
	}
	return nil
}

// Write stores data (block-aligned) at addr. The bytes are copied: the
// module never retains a reference to data, so callers may reuse their
// buffer immediately. Blocks that were written before are updated in place,
// so steady-state rewrites allocate nothing.
func (m *Module) Write(addr uint64, data []byte) error {
	if err := m.checkAccess(addr, len(data)); err != nil {
		return err
	}
	m.store(addr, data)
	return nil
}

// store copies block-aligned data into the overlay at addr. A block the
// overlay lacks is carved from its slab (a slab sized to at least the rest
// of data, so a multi-block write into unwritten memory costs at most one
// allocation), shadowing the base layer's block, which is never written.
func (m *Module) store(addr uint64, data []byte) {
	for off := 0; off < len(data); off += BlockSize {
		a := addr + uint64(off)
		blk, ok := m.blocks[a]
		if !ok {
			blk = m.carve(len(data) - off)
			m.blocks[a] = blk
		}
		copy(blk, data[off:off+BlockSize])
	}
}

// Read returns n bytes (block-aligned) at addr in a freshly allocated
// buffer. Unwritten blocks read as zeros, as a scrubbed DRAM would.
func (m *Module) Read(addr uint64, n int) ([]byte, error) {
	if err := m.checkAccess(addr, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	for off := 0; off < n; off += BlockSize {
		copy(out[off:], m.block(addr+uint64(off)))
	}
	return out, nil
}

// ReadBlockInto copies the single block at addr into dst[:BlockSize]
// without allocating. dst must hold at least BlockSize bytes; an unwritten
// block reads as zeros, exactly as through Read.
func (m *Module) ReadBlockInto(addr uint64, dst []byte) error {
	if err := m.checkAccess(addr, BlockSize); err != nil {
		return err
	}
	if len(dst) < BlockSize {
		return fmt.Errorf("dram: ReadBlockInto dst of %d bytes, need %d", len(dst), BlockSize)
	}
	dst = dst[:BlockSize]
	if blk := m.block(addr); blk != nil {
		copy(dst, blk)
	} else {
		clear(dst)
	}
	return nil
}

// CorruptBit flips a single stored bit — the fault-injection backdoor that
// models a retention or disturb error while the module holds data. Unlike
// Write it is legal in both Active and SelfRefresh (the two states in which
// contents exist), generates no bus traffic, and bypasses the alignment
// rules: addr is a byte address, bit selects the bit within that byte.
// Flipping a bit in a never-written block materializes the block first
// (zeros plus the flipped bit), exactly as a disturb error in scrubbed
// memory would read back; flipping one in a base-layer block copies that
// block into the overlay first, so the shared base is never written.
func (m *Module) CorruptBit(addr uint64, bit uint) error {
	if m.state != Active && m.state != SelfRefresh {
		return fmt.Errorf("dram: corrupt in state %s (no contents)", m.state)
	}
	if addr >= m.cfg.CapacityBytes {
		return fmt.Errorf("dram: corrupt at %#x beyond capacity %#x", addr, m.cfg.CapacityBytes)
	}
	a := addr - addr%BlockSize
	blk, ok := m.blocks[a]
	if !ok {
		blk = m.carve(BlockSize)
		copy(blk, m.baseBlock(a))
		m.blocks[a] = blk
	}
	blk[addr-a] ^= 1 << (bit % 8)
	return nil
}

// SetContents stores data (block-aligned) at addr as stored contents, not
// as a bus write: the backdoor through which a replay engine installs the
// bytes its skipped writes would have left. Like CorruptBit it is legal in
// both Active and SelfRefresh and generates no bus traffic; the data is
// copied, as by Write.
func (m *Module) SetContents(addr uint64, data []byte) error {
	if m.state != Active && m.state != SelfRefresh {
		return fmt.Errorf("dram: set contents in state %s (no contents)", m.state)
	}
	if err := m.checkRange(addr, len(data)); err != nil {
		return err
	}
	m.store(addr, data)
	return nil
}
