// Package mee implements a functional Memory Encryption Engine in the
// style of Intel SGX's MEE (Gueron, 2016; paper §6): AES-128-CTR
// confidentiality, per-block HMAC integrity, and an on-chip-rooted counter
// tree for freshness, with a small metadata cache ("MEE cache") that
// absorbs tree traffic.
//
// The engine stores ciphertext and metadata in a dram.Module, so every tree
// miss and write-back is real DRAM traffic; the context save/restore
// latencies of §6.3 (≈18 µs write, ≈13 µs read for ~200 KB) emerge from the
// block counts this engine generates rather than from a fitted constant.
//
// Geometry (documented deviation from the undisclosed SGX tree): data is
// protected in 64-byte blocks; a level-0 metadata block carries three
// (version, MAC) entries plus its own embedded MAC; higher levels are
// 64-byte nodes of seven counters plus an embedded MAC, each node's MAC
// keyed by its parent's counter; the root counter lives on-chip.
package mee

import (
	"fmt"

	"odrips/internal/dram"
)

const (
	// BlockSize is the protection granularity.
	BlockSize = dram.BlockSize
	// entriesPerL0 is the number of (version, MAC) data entries per
	// level-0 metadata block: 3*16 B + 8 B block MAC + 8 B pad = 64 B.
	entriesPerL0 = 3
	// nodeArity is the counter fan-out of levels >= 1: 7*8 B counters +
	// 8 B MAC = 64 B.
	nodeArity = 7
	// macSize is the truncated MAC width in bytes.
	macSize = 8
)

// Layout describes where a protected region's data and metadata live.
type Layout struct {
	Base       uint64 // first byte of the region in DRAM
	DataBlocks int    // number of protected 64-byte data blocks
	L0Blocks   int    // level-0 metadata blocks
	LevelNodes []int  // nodes at levels 1..top (top has exactly 1)

	l0Base     uint64
	levelBases []uint64
	totalBytes uint64
}

// PlanLayout computes the metadata geometry for a region of dataBlocks
// 64-byte blocks based at base. base must be block-aligned.
func PlanLayout(base uint64, dataBlocks int) (Layout, error) {
	if dataBlocks <= 0 {
		return Layout{}, fmt.Errorf("mee: non-positive data block count %d", dataBlocks)
	}
	if base%BlockSize != 0 {
		return Layout{}, fmt.Errorf("mee: unaligned region base %#x", base)
	}
	l := Layout{Base: base, DataBlocks: dataBlocks}
	l.L0Blocks = (dataBlocks + entriesPerL0 - 1) / entriesPerL0
	l.l0Base = base + uint64(dataBlocks)*BlockSize
	next := l.l0Base + uint64(l.L0Blocks)*BlockSize
	children := l.L0Blocks
	for {
		nodes := (children + nodeArity - 1) / nodeArity
		l.LevelNodes = append(l.LevelNodes, nodes)
		l.levelBases = append(l.levelBases, next)
		next += uint64(nodes) * BlockSize
		if nodes == 1 {
			break
		}
		children = nodes
	}
	l.totalBytes = next - base
	return l, nil
}

// TotalBytes returns the full region footprint (data + metadata).
func (l Layout) TotalBytes() uint64 { return l.totalBytes }

// MetadataBytes returns the metadata-only footprint.
func (l Layout) MetadataBytes() uint64 {
	return l.totalBytes - uint64(l.DataBlocks)*BlockSize
}

// Levels returns the number of counter-tree levels above level 0.
func (l Layout) Levels() int { return len(l.LevelNodes) }

// dataAddr returns the DRAM address of data block i.
func (l Layout) dataAddr(i int) uint64 { return l.Base + uint64(i)*BlockSize }

// l0Addr returns the DRAM address of level-0 metadata block b.
func (l Layout) l0Addr(b int) uint64 { return l.l0Base + uint64(b)*BlockSize }

// nodeAddr returns the DRAM address of node j at level lvl (1-based).
func (l Layout) nodeAddr(lvl, j int) uint64 {
	return l.levelBases[lvl-1] + uint64(j)*BlockSize
}

// levelCount returns the number of metadata blocks at level lvl (0 is
// level 0, the version/MAC blocks).
func (l Layout) levelCount(lvl int) int {
	if lvl == 0 {
		return l.L0Blocks
	}
	return l.LevelNodes[lvl-1]
}
