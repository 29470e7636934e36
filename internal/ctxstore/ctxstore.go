// Package ctxstore models the processor context that DRIPS must preserve:
// configuration/status registers, firmware persistent data and patches, and
// fuse shadows (§1, §6) — around 200 KB in total — plus the ~1 KB boot
// image (PMU, memory-controller, and MEE state) that must stay on-chip in
// the Boot SRAM so the exit flow can reach DRAM at all (§6.2).
package ctxstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"sort"
)

// Section is one logically distinct piece of processor context.
type Section struct {
	Name string
	Data []byte
}

// Context is the full save/restore image.
type Context struct {
	sections []Section
}

// SkylakeSections returns the paper-scale section inventory: the sizes sum
// to ~200 KB, split between the system-agent domain (saved to the SA S/R
// SRAM in baseline DRIPS) and the compute domain (cores/GFX S/R SRAMs).
func SkylakeSections() map[string]int {
	return map[string]int{
		"sa/csr":          24 << 10, // system-agent config/status registers
		"sa/mc-training":  20 << 10, // memory-controller DDR training data
		"sa/io-config":    12 << 10,
		"sa/fuses":        8 << 10,  // fuse shadow copies
		"pmu/firmware":    28 << 10, // PMU firmware persistent data
		"pmu/patches":     24 << 10, // firmware patch storage
		"cores/archstate": 48 << 10, // per-core architectural state
		"cores/microcode": 24 << 10, // microcode patch RAM
		"gfx/state":       8 << 10,
	}
}

// SkylakeSize returns the payload size of the standard context, the sum
// of SkylakeSections: what GenerateSkylake(seed).Size() is for any seed.
func SkylakeSize() int {
	var n int
	for _, size := range SkylakeSections() {
		n += size
	}
	return n
}

// SASectionNames returns the names held in the SA save/restore SRAM.
func SASectionNames() []string {
	return []string{"sa/csr", "sa/mc-training", "sa/io-config", "sa/fuses", "pmu/firmware", "pmu/patches"}
}

// ComputeSectionNames returns the names held in the cores/GFX SRAMs.
func ComputeSectionNames() []string {
	return []string{"cores/archstate", "cores/microcode", "gfx/state"}
}

// Generate builds a deterministic pseudo-random context from a seed, with
// the given section sizes. Deterministic generation lets tests compare a
// restored context byte-for-byte.
func Generate(seed int64, sizes map[string]int) *Context {
	names := make([]string, 0, len(sizes))
	for n := range sizes {
		names = append(names, n)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(seed))
	c := &Context{}
	for _, n := range names {
		data := make([]byte, sizes[n])
		rng.Read(data)
		c.sections = append(c.sections, Section{Name: n, Data: data})
	}
	return c
}

// GenerateSkylake builds the standard ~200 KB context.
func GenerateSkylake(seed int64) *Context {
	return Generate(seed, SkylakeSections())
}

// Sections returns the sections in canonical (sorted) order.
func (c *Context) Sections() []Section {
	return append([]Section(nil), c.sections...)
}

// Section returns one section's data, or nil.
func (c *Context) Section(name string) []byte {
	for _, s := range c.sections {
		if s.Name == name {
			return s.Data
		}
	}
	return nil
}

// Size returns the total payload size in bytes.
func (c *Context) Size() int {
	var n int
	for _, s := range c.sections {
		n += len(s.Data)
	}
	return n
}

// Hash returns a SHA-256 over the canonical serialization.
func (c *Context) Hash() [32]byte { return sha256.Sum256(c.Serialize()) }

// Equal reports whether two contexts are byte-identical.
func (c *Context) Equal(o *Context) bool {
	return o != nil && bytes.Equal(c.Serialize(), o.Serialize())
}

// serialization: u32 section count, then per section u32 name len, name,
// u32 data len, data; finally a SHA-256 trailer over everything before it.

// SerializedSize returns the exact length of the canonical serialization,
// letting callers size a reusable buffer once instead of growing one per
// save.
func (c *Context) SerializedSize() int {
	n := 4 + sha256.Size
	for _, s := range c.sections {
		n += 4 + len(s.Name) + 4 + len(s.Data)
	}
	return n
}

// AppendSerialized appends the canonical serialization to dst and returns
// the extended slice. With dst pre-sized to SerializedSize capacity it
// performs no allocations, which is what keeps repeated context saves off
// the garbage collector.
func (c *Context) AppendSerialized(dst []byte) []byte {
	start := len(dst)
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(c.sections)))
	dst = append(dst, tmp[:]...)
	for _, s := range c.sections {
		binary.LittleEndian.PutUint32(tmp[:], uint32(len(s.Name)))
		dst = append(dst, tmp[:]...)
		dst = append(dst, s.Name...)
		binary.LittleEndian.PutUint32(tmp[:], uint32(len(s.Data)))
		dst = append(dst, tmp[:]...)
		dst = append(dst, s.Data...)
	}
	sum := sha256.Sum256(dst[start:])
	return append(dst, sum[:]...)
}

// Serialize flattens the context for transport to SRAM or protected DRAM.
func (c *Context) Serialize() []byte {
	return c.AppendSerialized(make([]byte, 0, c.SerializedSize()))
}

// Subset returns a new context holding only the named sections (used to
// split the image between the SA FSM and the LLC FSM paths).
func (c *Context) Subset(names []string) *Context {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := &Context{}
	for _, s := range c.sections {
		if want[s.Name] {
			out.sections = append(out.sections, s)
		}
	}
	return out
}

// BootImageSize is the on-chip Boot SRAM budget (§6.2): ~1 KB, about 0.5%
// of the full context.
const BootImageSize = 1 << 10

// BootImage is the minimal state that must survive on-chip: enough to
// restore the PMU, memory controller, and MEE before DRAM is reachable.
type BootImage struct {
	MEEState  []byte // sealed MEE state (key, root counter, layout)
	MCConfig  []byte // minimal memory-controller bring-up values
	PMUVector []byte // PMU boot vector/state
}

// Pack serializes the boot image, failing if it exceeds the Boot SRAM.
func (b BootImage) Pack() ([]byte, error) {
	var buf bytes.Buffer
	for _, part := range [][]byte{b.MEEState, b.MCConfig, b.PMUVector} {
		var tmp [4]byte
		binary.LittleEndian.PutUint32(tmp[:], uint32(len(part)))
		buf.Write(tmp[:])
		buf.Write(part)
	}
	if buf.Len() > BootImageSize {
		return nil, fmt.Errorf("ctxstore: boot image %d bytes exceeds Boot SRAM (%d)", buf.Len(), BootImageSize)
	}
	return buf.Bytes(), nil
}

// UnpackBootImage parses a packed boot image.
func UnpackBootImage(data []byte) (BootImage, error) {
	var out BootImage
	parts := []*[]byte{&out.MEEState, &out.MCConfig, &out.PMUVector}
	rd := bytes.NewReader(data)
	for i, dst := range parts {
		var n uint32
		if err := binary.Read(rd, binary.LittleEndian, &n); err != nil {
			return BootImage{}, fmt.Errorf("ctxstore: truncated boot image part %d: %w", i, err)
		}
		if int(n) > rd.Len() {
			return BootImage{}, fmt.Errorf("ctxstore: boot image part %d claims %d bytes, %d remain", i, n, rd.Len())
		}
		*dst = make([]byte, n)
		if _, err := io.ReadFull(rd, *dst); err != nil {
			return BootImage{}, err
		}
	}
	return out, nil
}
