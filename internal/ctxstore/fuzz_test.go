package ctxstore

import "testing"

// FuzzUnpackBootImage hardens the Boot SRAM image parser the exit flow
// trusts before DRAM is reachable.
func FuzzUnpackBootImage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{255, 255, 255, 255})
	good, err := (BootImage{MEEState: []byte{1, 2}, MCConfig: []byte{3}, PMUVector: []byte{4}}).Pack()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := UnpackBootImage(data)
		if err != nil {
			return
		}
		repacked, err := img.Pack()
		if err != nil {
			t.Fatalf("accepted boot image fails to repack: %v", err)
		}
		// Boot images carry no padding, so accept implies round-trip of
		// the consumed prefix.
		if len(repacked) > len(data) {
			t.Fatalf("repack grew: %d > %d", len(repacked), len(data))
		}
	})
}
