package memostore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"os"
	"testing"
)

// FuzzMemoStoreLoad hardens the entry loader against arbitrary on-disk
// bytes — truncations, bit flips, hostile length fields, mutations of
// valid entries. The contract under fuzz: Load must return a miss or a
// typed *CorruptError, never panic, and never report a hit unless every
// header and checksum field verified, in which case the payload must be
// exactly the stored bytes.
func FuzzMemoStoreLoad(f *testing.F) {
	key := []byte("fuzz-key")
	keyHash := sha256.Sum256(key)
	var buildFP [32]byte
	copy(buildFP[:], bytes.Repeat([]byte{0xAB}, 32))

	// Seed with a valid entry and targeted mutations of it.
	valid := encodeForFuzz(buildFP, keyHash, []byte("payload-bytes"))
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(valid)
	for _, off := range []int{0, len(magic), len(magic) + 4, len(magic) + 4 + 32, headerLen - 1, headerLen + 1, len(valid) - 1} {
		bad := append([]byte(nil), valid...)
		bad[off] ^= 0xFF
		f.Add(bad)
	}
	f.Add(valid[:headerLen])
	f.Add(append(append([]byte(nil), valid...), 0x00))
	// A hostile length field.
	hostile := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(hostile[len(magic)+4+64:], ^uint32(0))
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		// The raw validator must be total.
		payload, hit, _ := DecodeEntryForFuzz(data, buildFP, keyHash)
		if hit {
			// A hit is only legitimate when the bytes are a well-formed
			// entry for exactly this build and key; re-encoding the
			// accepted payload must reproduce the input.
			if !bytes.Equal(encodeForFuzz(buildFP, keyHash, payload), data) {
				t.Fatalf("accepted entry does not round-trip")
			}
		}

		// The full Load path over a real file must agree and never panic.
		dir := t.TempDir()
		s, err := Open(dir, RO)
		if err != nil {
			t.Fatal(err)
		}
		path := s.EntryPath("fuzz", key)
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		got, ok, err := s.Load("fuzz", key)
		if ok && err != nil {
			t.Fatalf("hit with error: %v", err)
		}
		if err != nil {
			if _, isCorrupt := err.(*CorruptError); !isCorrupt {
				t.Fatalf("untyped load error: %v", err)
			}
		}
		if ok {
			// Load verifies against the store's own build fingerprint, so
			// a hit additionally requires the entry to carry it.
			if !bytes.Equal(encodeForFuzz(s.buildFP, keyHash, got), data) {
				t.Fatalf("Load accepted an entry that does not round-trip")
			}
		}
	})
}

// encodeForFuzz mirrors Save's entry layout for arbitrary header fields.
func encodeForFuzz(buildFP, keyHash [32]byte, payload []byte) []byte {
	buf := make([]byte, 0, headerLen+len(payload)+trailerLen)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, SchemaVersion)
	buf = append(buf, buildFP[:]...)
	buf = append(buf, keyHash[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(payload)
	return append(buf, sum[:]...)
}
