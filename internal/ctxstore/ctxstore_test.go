package ctxstore

import (
	"bytes"
	"testing"
)

func TestSkylakeContextScale(t *testing.T) {
	c := GenerateSkylake(1)
	// The paper puts the context at ~200 KB ("at most 200 KB", §9).
	if c.Size() != 196<<10 {
		t.Fatalf("context size = %d, want %d", c.Size(), 196<<10)
	}
	if len(c.Sections()) != 9 {
		t.Fatalf("sections = %d", len(c.Sections()))
	}
	// SA + compute split covers every section exactly once.
	names := map[string]bool{}
	for _, n := range append(SASectionNames(), ComputeSectionNames()...) {
		if names[n] {
			t.Fatalf("section %s in both splits", n)
		}
		names[n] = true
	}
	for _, s := range c.Sections() {
		if !names[s.Name] {
			t.Fatalf("section %s missing from splits", s.Name)
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a, b := GenerateSkylake(7), GenerateSkylake(7)
	if !a.Equal(b) {
		t.Fatal("same seed produced different contexts")
	}
	c := GenerateSkylake(8)
	if a.Equal(c) {
		t.Fatal("different seeds produced identical contexts")
	}
	if a.Hash() == c.Hash() {
		t.Fatal("hash collision across seeds")
	}
}

func TestSectionLookup(t *testing.T) {
	c := GenerateSkylake(1)
	if c.Section("sa/csr") == nil {
		t.Fatal("sa/csr missing")
	}
	if c.Section("nope") != nil {
		t.Fatal("bogus section found")
	}
}

func TestSubsetAndMerge(t *testing.T) {
	c := GenerateSkylake(5)
	sa := c.Subset(SASectionNames())
	compute := c.Subset(ComputeSectionNames())
	if sa.Size()+compute.Size() != c.Size() {
		t.Fatalf("split sizes %d+%d != %d", sa.Size(), compute.Size(), c.Size())
	}
}

func TestBootImagePackUnpack(t *testing.T) {
	b := BootImage{
		MEEState:  bytes.Repeat([]byte{1}, 96),
		MCConfig:  bytes.Repeat([]byte{2}, 400),
		PMUVector: bytes.Repeat([]byte{3}, 300),
	}
	packed, err := b.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) > BootImageSize {
		t.Fatalf("boot image %d bytes exceeds Boot SRAM", len(packed))
	}
	back, err := UnpackBootImage(packed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.MEEState, b.MEEState) ||
		!bytes.Equal(back.MCConfig, b.MCConfig) ||
		!bytes.Equal(back.PMUVector, b.PMUVector) {
		t.Fatal("boot image round trip mismatch")
	}
}

func TestBootImageOverflowRejected(t *testing.T) {
	b := BootImage{MEEState: make([]byte, BootImageSize)}
	if _, err := b.Pack(); err == nil {
		t.Fatal("oversized boot image packed")
	}
}

func TestUnpackBootImageRejectsGarbage(t *testing.T) {
	if _, err := UnpackBootImage([]byte{1, 2}); err == nil {
		t.Fatal("short boot image accepted")
	}
	if _, err := UnpackBootImage([]byte{255, 255, 255, 255, 0}); err == nil {
		t.Fatal("lying length accepted")
	}
}

func BenchmarkSerialize200KB(b *testing.B) {
	c := GenerateSkylake(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Serialize()
	}
}

// TestSkylakeSizeMatchesGenerated: the size Table 1 prints without
// generating a context is the generated context's size at any seed.
func TestSkylakeSizeMatchesGenerated(t *testing.T) {
	for _, seed := range []int64{0, 1, 42} {
		if got, want := SkylakeSize(), GenerateSkylake(seed).Size(); got != want {
			t.Fatalf("SkylakeSize() = %d, GenerateSkylake(%d).Size() = %d", got, seed, want)
		}
	}
	if got := SkylakeSize() >> 10; got != 196 {
		t.Fatalf("SkylakeSize() = %d KB, want 196 KB", got)
	}
}
