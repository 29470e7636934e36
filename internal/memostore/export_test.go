package memostore

// Test hooks into Store internals; no program needs them.

// Dir returns the store's root directory.
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// BuildFingerprint returns the digest that versions every entry.
func (s *Store) BuildFingerprint() [32]byte {
	if s == nil {
		return [32]byte{}
	}
	return s.buildFP
}

// DecodeEntryForFuzz exposes the raw entry validator to the fuzz target:
// it must classify arbitrary bytes without panicking and only report a
// hit when every check passed.
func DecodeEntryForFuzz(data []byte, buildFP, keyHash [32]byte) (payload []byte, hit bool, reason string) {
	p, v := decodeEntry(data, buildFP, keyHash)
	return p, v.kind == 0, v.reason
}
