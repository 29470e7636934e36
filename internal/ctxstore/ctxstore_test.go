package ctxstore

import (
	"bytes"
	"testing"
	"testing/quick"
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

func TestSerializeRoundTrip(t *testing.T) {
	c := GenerateSkylake(3)
	img := c.Serialize()
	back, err := Deserialize(img)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(back) {
		t.Fatal("round trip mismatch")
	}
}

func TestDeserializeRejectsCorruption(t *testing.T) {
	img := GenerateSkylake(3).Serialize()
	for _, off := range []int{0, 10, len(img) / 2, len(img) - 1} {
		bad := append([]byte(nil), img...)
		bad[off] ^= 0x40
		if _, err := Deserialize(bad); err == nil {
			t.Fatalf("corruption at %d accepted", off)
		}
	}
	if _, err := Deserialize(img[:20]); err == nil {
		t.Fatal("truncated image accepted")
	}
	if _, err := Deserialize(nil); err == nil {
		t.Fatal("nil image accepted")
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
	merged := Merge(sa, compute)
	if !merged.Equal(c) {
		t.Fatal("merge(split) != original")
	}
	if !Merge(nil, c).Equal(c) {
		t.Fatal("merge with nil broke")
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

// Property: serialize/deserialize round-trips arbitrary section contents.
func TestSerializeProperty(t *testing.T) {
	f := func(sizes []uint8, seed int64) bool {
		m := make(map[string]int)
		for i, s := range sizes {
			if i >= 6 {
				break
			}
			m[string(rune('a'+i))] = int(s)
		}
		if len(m) == 0 {
			m["x"] = 1
		}
		c := Generate(seed, m)
		back, err := Deserialize(c.Serialize())
		return err == nil && c.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
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
