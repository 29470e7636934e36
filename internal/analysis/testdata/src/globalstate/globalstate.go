// Package globalstate is an odrips-vet test fixture: package-level mutable
// process state in internal/*.
package globalstate

import "sync"

// Bad: the type itself is shared-mutable, however it is accessed.
var mu sync.Mutex // want globalstate

// Bad: a plain var demonstrably written at runtime.
var count int // want globalstate

// Bad: a seeded table that a function later mutates.
var registry = map[string]int{"a": 1} // want globalstate

// Bad: sync state buried inside a struct type.
var pool struct { // want globalstate
	once  sync.Once
	items []string
}

// Good: read-only seeded values, never written after initialization.
var names = [...]string{"alpha", "beta"}
var limit = 64

// Allowed shows the audited escape hatch for composition-root state.
//
//odrips:allow globalstate fixture exercises the allow path
var allowed sync.Once

// Good with an allow: a composition root gathers a package's process
// state behind one owning struct, the only shape the rule lets through.
//
//odrips:allow globalstate fixture exercises an owning composition-root struct
var root struct {
	mu    sync.Mutex
	cache map[string]int
}

// reset mutates the allowed root; the allow covers the write check too.
func reset() {
	root.mu.Lock()
	defer root.mu.Unlock()
	root.cache = nil
}

// bump mutates the package-level state the write check flags.
func bump() {
	count++
	registry["b"] = 2
}

// local state is fine: owned by the caller's frame.
func local() int {
	var localMu sync.Mutex
	localMu.Lock()
	defer localMu.Unlock()
	n := limit
	for range names {
		n++
	}
	pool.once.Do(func() {})
	return n
}
