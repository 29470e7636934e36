// Package lru is a mutex-guarded, bounded, metrics-instrumented LRU
// cache for the simulator's memo layers. The memoized values are pure —
// a hit is bit-identical to a recompute — so eviction can only ever cost
// time, never correctness, which is what makes bounding the previously
// unbounded memo maps safe: a fleet-scale run that streams millions of
// distinct keys through a memo now stays O(capacity) in memory and the
// counters say how well the bound fits the working set.
//
// Eviction is strict least-recently-used over Get/Put touches, so for a
// deterministic access sequence the evicted set is deterministic too (a
// property the fleet engine's memo-rate accounting relies on).
package lru

import "sync"

// Stats counts cache outcomes since construction (or the last Reset).
type Stats struct {
	Hits      uint64 `json:"hits"`      // Get found the key
	Misses    uint64 `json:"misses"`    // Get did not
	Puts      uint64 `json:"puts"`      // values inserted (not counting overwrites of a key)
	Evictions uint64 `json:"evictions"` // entries dropped to respect the capacity bound
}

// Cache is a bounded LRU map. The zero value is not usable; call New.
// All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	m     map[K]*node[K, V]
	head  *node[K, V] // most recently used
	tail  *node[K, V] // least recently used
	stats Stats
}

type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next *node[K, V]
}

// New creates a cache bounded to capacity entries. capacity < 1 panics:
// an unbounded memo is exactly what this package exists to replace, so
// asking for one is a caller bug, not a mode.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		panic("lru: capacity must be at least 1")
	}
	return &Cache[K, V]{cap: capacity, m: make(map[K]*node[K, V])}
}

// Get returns the value cached for key, marking it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.m[key]
	if !ok {
		c.stats.Misses++
		var zero V
		return zero, false
	}
	c.stats.Hits++
	c.touch(n)
	return n.val, true
}

// Put caches value under key (overwriting any previous value), marking it
// most recently used and evicting the least recently used entry if the
// cache is over capacity.
func (c *Cache[K, V]) Put(key K, value V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.m[key]; ok {
		n.val = value
		c.touch(n)
		return
	}
	c.stats.Puts++
	n := &node[K, V]{key: key, val: value}
	c.m[key] = n
	c.push(n)
	if len(c.m) > c.cap {
		lru := c.tail
		c.unlink(lru)
		delete(c.m, lru.key)
		c.stats.Evictions++
	}
}

// Peek returns the value cached for key without touching recency or
// counters — an observation, not a use. Owners iterating for maintenance
// (flushing dirty entries) use it so bookkeeping reads don't distort the
// eviction order or the hit-rate statistics.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	return n.val, true
}

// Keys returns the cached keys from most to least recently used. Like
// Peek it leaves recency and counters untouched.
func (c *Cache[K, V]) Keys() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]K, 0, len(c.m))
	for n := c.head; n != nil; n = n.next {
		keys = append(keys, n.key)
	}
	return keys
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Cap returns the capacity bound.
func (c *Cache[K, V]) Cap() int { return c.cap }

// Stats returns a snapshot of the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Reset drops every entry and zeroes the counters.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[K]*node[K, V])
	c.head, c.tail = nil, nil
	c.stats = Stats{}
}

// touch moves n to the head of the recency list.
func (c *Cache[K, V]) touch(n *node[K, V]) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.push(n)
}

// push links n at the head.
func (c *Cache[K, V]) push(n *node[K, V]) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

// unlink removes n from the recency list.
func (c *Cache[K, V]) unlink(n *node[K, V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}
