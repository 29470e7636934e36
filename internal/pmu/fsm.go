package pmu

import (
	"fmt"

	"odrips/internal/ctxstore"
	"odrips/internal/mee"
	"odrips/internal/sim"
	"odrips/internal/sram"
)

// SaveEngine is the common shape of the context-moving finite state
// machines of Fig. 4: the SA FSM (system-agent context), the LLC FSM
// (cores/graphics context), and the Boot FSM (Boot SRAM). Each exposes the
// latency its transfer takes, so flows can schedule completion events, and
// performs the actual byte movement so restores are verifiable.

// SRAMTarget moves a serialized context image into an on-chip S/R SRAM
// (the baseline DRIPS path). On-chip transfers run at array port speed.
type SRAMTarget struct {
	Array *sram.Array
	// PortBandwidth in bytes/second; on-chip arrays stream at tens of GB/s.
	PortBandwidth float64
}

// NewSRAMTarget wires an engine to an array at 24 GB/s port bandwidth.
func NewSRAMTarget(a *sram.Array) *SRAMTarget {
	return &SRAMTarget{Array: a, PortBandwidth: 24e9}
}

// SaveLatency returns the time to write n bytes into the array.
func (t *SRAMTarget) SaveLatency(n int) sim.Duration {
	return sim.FromSeconds(float64(n)/t.PortBandwidth) + 500*sim.Nanosecond
}

// RestoreLatency returns the time to read n bytes back.
func (t *SRAMTarget) RestoreLatency(n int) sim.Duration { return t.SaveLatency(n) }

// Save writes the image at offset 0. The array must be Active.
func (t *SRAMTarget) Save(image []byte) error {
	if len(image) > t.Array.Size() {
		return fmt.Errorf("pmu: image %d bytes exceeds %s (%d bytes)", len(image), t.Array.Name(), t.Array.Size())
	}
	return t.Array.Write(0, image)
}

// RestoreInto reads len(dst) bytes back from offset 0 into the caller's
// buffer, allocating nothing.
func (t *SRAMTarget) RestoreInto(dst []byte) error { return t.Array.ReadInto(0, dst) }

// DRAMTarget moves a serialized context image through the MEE into the
// protected DRAM region (the ODRIPS path, §6.2). Latency derives from the
// real DRAM traffic the engine generated, so it inherits the MEE-cache and
// tree behavior.
type DRAMTarget struct {
	Engine *mee.Engine
}

// Save encrypts and writes the image into the protected region, returning
// the transfer latency implied by the generated DRAM traffic.
func (t *DRAMTarget) Save(image []byte) (sim.Duration, error) {
	before := t.Engine.Stats()
	if err := t.Engine.WriteRegion(image); err != nil {
		return 0, err
	}
	if err := t.Engine.Flush(); err != nil {
		return 0, err
	}
	after := t.Engine.Stats()
	blocks := after.TotalBlocks() - before.TotalBlocks()
	return t.Engine.Mem().TransferTime(int(blocks)*mee.BlockSize, true), nil
}

// RestoreInto reads and verifies n bytes from the protected region into
// the caller's buffer, which must hold whole MEE blocks
// (ceil(n/mee.BlockSize)*mee.BlockSize bytes). It returns dst[:n] and the
// transfer latency, allocating nothing.
func (t *DRAMTarget) RestoreInto(dst []byte, n int) ([]byte, sim.Duration, error) {
	before := t.Engine.Stats()
	data, err := t.Engine.ReadRegionInto(dst, n)
	if err != nil {
		return nil, 0, err
	}
	after := t.Engine.Stats()
	blocks := after.TotalBlocks() - before.TotalBlocks()
	return data, t.Engine.Mem().TransferTime(int(blocks)*mee.BlockSize, false), nil
}

// BootFSM saves the minimal bring-up image (PMU vector, memory-controller
// config, sealed MEE state) into the on-chip Boot SRAM and restores it
// before DRAM is reachable at exit (§6.2).
type BootFSM struct {
	SRAM *sram.Array
}

// NewBootFSM wires the FSM to a 1 KiB boot array.
func NewBootFSM(a *sram.Array) *BootFSM { return &BootFSM{SRAM: a} }

// Save packs and stores the boot image. The array must be Active.
func (b *BootFSM) Save(img ctxstore.BootImage) error {
	packed, err := img.Pack()
	if err != nil {
		return err
	}
	return b.SRAM.Write(0, packed)
}

// Restore unpacks the boot image from the array.
func (b *BootFSM) Restore() (ctxstore.BootImage, error) {
	data, err := b.SRAM.Read(0, b.SRAM.Size())
	if err != nil {
		return ctxstore.BootImage{}, err
	}
	return ctxstore.UnpackBootImage(data)
}

// Latency returns the (small) Boot SRAM transfer time.
func (b *BootFSM) Latency() sim.Duration { return 2 * sim.Microsecond }
