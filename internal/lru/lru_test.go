package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestBasicGetPut(t *testing.T) {
	c := New[string, int](4)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d,%v want 1,true", v, ok)
	}
	c.Put("a", 10) // overwrite
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("Get(a) after overwrite = %d want 10", v)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d want 2", c.Len())
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Puts != 2 || st.Evictions != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestEvictionOrder pins strict LRU: the least recently touched key (by
// Get or Put) is the one evicted, deterministically.
func TestEvictionOrder(t *testing.T) {
	c := New[int, int](3)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Put(3, 3)
	c.Get(1)    // order now (MRU) 1 3 2 (LRU)
	c.Put(4, 4) // evicts 2
	if _, ok := c.Get(2); ok {
		t.Fatal("2 should have been evicted")
	}
	for _, k := range []int{1, 3, 4} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%d should have survived", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d want 1", st.Evictions)
	}

	// Single-entry cache: every new key evicts the previous one.
	c1 := New[int, int](1)
	for i := 0; i < 10; i++ {
		c1.Put(i, i)
	}
	if c1.Len() != 1 {
		t.Fatalf("cap-1 Len = %d want 1", c1.Len())
	}
	if v, ok := c1.Get(9); !ok || v != 9 {
		t.Fatalf("cap-1 kept %d,%v want 9,true", v, ok)
	}
	if st := c1.Stats(); st.Evictions != 9 {
		t.Fatalf("cap-1 evictions = %d want 9", st.Evictions)
	}
}

func TestReset(t *testing.T) {
	c := New[int, int](8)
	for i := 0; i < 8; i++ {
		c.Put(i, i)
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("Len after Reset = %d", c.Len())
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("stats after Reset = %+v", st)
	}
	c.Put(1, 1)
	if v, ok := c.Get(1); !ok || v != 1 {
		t.Fatalf("cache unusable after Reset: %d,%v", v, ok)
	}
}

func TestBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New[int, int](0)
}

// TestConcurrent hammers one cache from many goroutines under -race: the
// memo planes share caches across fleet shards, so the mutex discipline is
// part of the contract.
func TestConcurrent(t *testing.T) {
	c := New[string, int](64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*31+i)%100)
				if v, ok := c.Get(k); ok && v < 0 {
					t.Errorf("impossible value %d", v)
				}
				c.Put(k, i)
				if i%17 == 0 {
					c.Len()
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("Len = %d exceeds capacity 64", c.Len())
	}
}

// TestPutEvictionOrder pins Put's least-recently-used eviction and the
// non-observing reads (Peek, Keys).
func TestPutEvictionOrder(t *testing.T) {
	c := New[int, string](2)
	c.Put(1, "a")
	c.Put(2, "b")
	c.Put(3, "c") // evicts 1 (LRU)
	if _, ok := c.Peek(1); ok || c.Stats().Evictions != 1 {
		t.Fatalf("Put(3) kept 1 or evicted %d entries, want 1 evicted", c.Stats().Evictions)
	}
	c.Put(2, "b2")
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("overwrite evicted: %d evictions", ev)
	}

	before := c.Stats()
	if v, ok := c.Peek(2); !ok || v != "b2" {
		t.Fatalf("Peek(2) = %q,%v", v, ok)
	}
	if _, ok := c.Peek(99); ok {
		t.Fatal("Peek hit a missing key")
	}
	keys := c.Keys()
	if len(keys) != 2 || keys[0] != 2 || keys[1] != 3 {
		t.Fatalf("Keys = %v want [2 3] (MRU first)", keys)
	}
	if after := c.Stats(); after != before {
		t.Fatalf("Peek/Keys moved counters: %+v -> %+v", before, after)
	}
}
