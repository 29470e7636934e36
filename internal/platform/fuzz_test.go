package platform

import (
	"bytes"
	"testing"
)

// FuzzBundleDecode hardens the bundle codec against arbitrary payload
// bytes: a store entry passes its checksum before the codec sees it, but
// a bundle written by a buggy build, or damaged before it was
// checksummed, must still degrade to a cold class. The contract: for any
// input ffDecodeBundle returns an error, or records whose re-encoding is
// byte-identical to the input (the decoder accepts only the canonical
// form), and it never panics.
func FuzzBundleDecode(f *testing.F) {
	good := ffEncodeBundle(testCycleRecords())
	f.Add(good)
	f.Add(ffEncodeBundle(nil))
	for _, n := range []int{0, 8, 16, len(good) / 2, len(good) - 1} {
		f.Add(good[:n])
	}
	// v4 payloads: the cycle section, then an op section, empty or
	// holding the three 121-byte records every v4 class carried.
	v4 := append(append([]byte(nil), good...), make([]byte, 8)...)
	v4[0] = 4
	f.Add(v4)
	v4ops := append(append([]byte(nil), good...), 3, 0, 0, 0, 0, 0, 0, 0)
	v4ops = append(v4ops, make([]byte, 3*121)...)
	v4ops[0] = 4
	f.Add(v4ops)
	// One key of the records alone.
	for k, list := range testCycleRecords() {
		if len(list) == 1 {
			f.Add(ffEncodeBundle(ffRecords{k: list}))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		records, err := ffDecodeBundle(data)
		if err != nil {
			return
		}
		if again := ffEncodeBundle(records); !bytes.Equal(again, data) {
			t.Fatalf("accepted payload does not re-encode to itself:\n in  %x\n out %x", data, again)
		}
	})
}

// FuzzOpTableDecode holds the "meeops" entry codec to the same contract:
// for any input ffDecodeOpTable returns an error, or a geometry and
// records whose re-encoding is byte-identical to the input, and it never
// panics.
func FuzzOpTableDecode(f *testing.F) {
	ops := testOpRecords()
	good := ffEncodeOpTable(testOpGeom(3200), ops)
	f.Add(good)
	f.Add(ffEncodeOpTable(testOpGeom(16), ops))
	f.Add(ffEncodeOpTable(testOpGeom(7), ops))
	for _, n := range []int{0, 8, 6 * 8, len(good) - ffOpRecordSize, len(good) - 1} {
		f.Add(good[:n])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g, ops, err := ffDecodeOpTable(data)
		if err != nil {
			return
		}
		if len(ops) > 3 {
			t.Fatalf("accepted %d records for one geometry", len(ops))
		}
		if again := ffEncodeOpTable(g, ops); !bytes.Equal(again, data) {
			t.Fatalf("accepted payload does not re-encode to itself:\n in  %x\n out %x", data, again)
		}
	})
}
