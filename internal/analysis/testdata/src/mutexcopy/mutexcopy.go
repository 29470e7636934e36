// Package mutexcopy is an odrips-vet test fixture: by-value copies of
// lock-bearing structs.
package mutexcopy

import "sync"

// Guarded embeds a mutex by value.
type Guarded struct {
	mu sync.Mutex
	n  int
}

// Nested embeds Guarded, so it is lock-bearing transitively.
type Nested struct {
	g Guarded
}

// badParam receives the lock by value.
func badParam(g Guarded) int { // want mutexcopy
	return g.n
}

// badReceiver copies the lock on every call.
func (g Guarded) badReceiver() int { // want mutexcopy
	return g.n
}

// badCopy forks the lock state.
func badCopy(g *Guarded) {
	cp := *g // want mutexcopy
	_ = cp
}

// badRange copies each element's lock.
func badRange(gs []Nested) int {
	n := 0
	for _, g := range gs { // want mutexcopy
		n += g.g.n
	}
	return n
}

// goodPointer threads the lock by reference.
func goodPointer(g *Guarded) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

// goodInit builds fresh values; composite literals initialize, not copy.
func goodInit() *Guarded {
	g := Guarded{n: 1}
	return &g
}

// allowed shows the audited escape hatch.
func allowed(g Guarded) int { //odrips:allow mutexcopy fixture exercises the allow path
	return g.n
}
