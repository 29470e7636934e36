package mee

import "odrips/internal/dram"

// New creates an engine over a fresh protected region of dataBlocks
// blocks based at base: Format followed by NewFormatted, the one-region
// shorthand the tests use.
func New(mem *dram.Module, base uint64, dataBlocks int, key [32]byte, cacheLines int) (*Engine, error) {
	f, err := Format(base, dataBlocks, key)
	if err != nil {
		return nil, err
	}
	return NewFormatted(mem, f, cacheLines)
}
