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
	good := ffEncodeBundle(testCycleRecords(), testOpRecords())
	f.Add(good)
	f.Add(ffEncodeBundle(nil, testOpRecords()))
	f.Add(ffEncodeBundle(testCycleRecords(), nil))
	for _, n := range []int{0, 8, 16, len(good) / 2, len(good) - ffOpRecordSize, len(good) - 1} {
		f.Add(good[:n])
	}
	// A v2 payload: the cycle section without the op section.
	v2 := ffEncodeBundle(testCycleRecords(), nil)
	v2 = append([]byte(nil), v2[:len(v2)-8]...)
	v2[0] = 2
	f.Add(v2)

	f.Fuzz(func(t *testing.T, data []byte) {
		records, ops, err := ffDecodeBundle(data)
		if err != nil {
			return
		}
		if again := ffEncodeBundle(records, ops); !bytes.Equal(again, data) {
			t.Fatalf("accepted payload does not re-encode to itself:\n in  %x\n out %x", data, again)
		}
	})
}
