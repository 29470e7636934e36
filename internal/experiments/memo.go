package experiments

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync/atomic"

	"odrips/internal/lru"
	"odrips/internal/platform"
)

// ---- Point memos ----
//
// Every deterministic point the programs evaluate is a pure function of
// its inputs: a sweep average, a transition time, a wake-latency sample,
// a coalescing or MEE-cache row, a fleet run class's summary. Config is
// a pure value type (see the comparability guard in internal/platform)
// and simulations are deterministic, so a point memoizes on its inputs
// and a hit is bit-identical to a recompute. Each memo class is one
// PointMemo: a class name, a key type and a canonical codec. A point is
// served from the runtime's bounded in-process cache of its class, then
// from the content-addressed memo store (-memocache) under the class
// name, and on a miss it is simulated, saved and cached. The store's
// build fingerprint (a content hash of the executable) covers every
// constant a point's code holds, so a key names only the inputs the
// point varies. Under -fastforward=verify no stored point is trusted: a
// point the in-process cache lacks is re-simulated and its canonical
// bytes compared with the stored ones.

// MemoKey is a point memo's key: comparable for the in-process cache,
// with a stable rendering for the store.
type MemoKey interface {
	comparable
	StoreKey() []byte
}

// PointMemo is one memo class. Encode renders a value canonically —
// equal values, and only they, encode to equal bytes — and Decode is its
// inverse, reporting false for any payload Encode cannot produce.
type PointMemo[K MemoKey, T any] struct {
	Class  string
	Encode func(T) []byte
	Decode func([]byte) (T, bool)
}

// Get serves key from rt's cache of the class, then from the store, and
// on a miss runs simulate, saves its value and caches it. loaded reports
// that the value came from a memo rather than from simulate. A store
// failure — no store, miss, corruption, an undecodable payload — is a
// miss. Workers that reach the same cold point together each simulate
// it, byte-identically, and the last save wins. Under
// -fastforward=verify a point the cache lacks is simulated and a stored
// value that differs fails the call, naming the class and the field.
func (m *PointMemo[K, T]) Get(rt *Runtime, key K, simulate func() (T, error)) (v T, loaded bool, err error) {
	cache, loads, err := pointCacheOf[K, T](rt, m.Class)
	if err != nil {
		return v, false, err
	}
	if v, ok := cache.Get(key); ok {
		return v, true, nil
	}
	storeKey := key.StoreKey()
	load := func() (T, bool) {
		payload, ok, err := rt.Store().Load(m.Class, storeKey)
		if err != nil || !ok {
			var zero T
			return zero, false
		}
		return m.Decode(payload)
	}
	if rt.ff != platform.FFVerify {
		if v, ok := load(); ok {
			loads.Add(1)
			cache.Put(key, v)
			return v, true, nil
		}
	}
	if v, err = simulate(); err != nil {
		return v, false, err
	}
	payload := m.Encode(v)
	if rt.ff == platform.FFVerify {
		if stored, ok := load(); ok && string(m.Encode(stored)) != string(payload) {
			var zero T
			return zero, false, fmt.Errorf("experiments: fastforward verify: %s point diverged from persistent memo (%s)", m.Class, memoDiff(stored, v))
		}
	} else {
		rt.Store().Save(m.Class, storeKey, payload)
	}
	cache.Put(key, v)
	return v, false, nil
}

// pointCacheOf returns rt's cache of class, building it at the class's
// bound on first use, and the counter of the class's store loads.
func pointCacheOf[K comparable, T any](rt *Runtime, class string) (*lru.Cache[K, T], *atomic.Uint64, error) {
	rt.memoMu.Lock()
	defer rt.memoMu.Unlock()
	if pm, ok := rt.memos[class]; ok {
		if typed, ok := pm.cache.(*lru.Cache[K, T]); ok {
			return typed, &pm.loaded, nil
		}
		return nil, nil, fmt.Errorf("experiments: memo class %q used with two value types", class)
	}
	for _, pc := range pointClasses {
		if pc.class == class {
			pm := &pointMemo{cache: lru.New[K, T](pc.cap)}
			rt.memos[class] = pm
			return pm.cache.(*lru.Cache[K, T]), &pm.loaded, nil
		}
	}
	return nil, nil, fmt.Errorf("experiments: unknown memo class %q", class)
}

// memoDiff names where a stored value and its recompute differ: the
// first differing field of a struct, else the two values.
func memoDiff(stored, computed any) string {
	s, c := reflect.ValueOf(stored), reflect.ValueOf(computed)
	if s.Kind() == reflect.Struct {
		for i := range s.NumField() {
			if a, b := fmt.Sprintf("%#v", s.Field(i)), fmt.Sprintf("%#v", c.Field(i)); a != b {
				return fmt.Sprintf("field %s: stored %s, computed %s", s.Type().Field(i).Name, a, b)
			}
		}
	}
	return fmt.Sprintf("stored %#v, computed %#v", stored, computed)
}

// MemoEncoder builds a canonical memo payload: little-endian 64-bit
// words, floats as their bits, strings length-prefixed, count maps as a
// length and their entries in sorted key order.
type MemoEncoder struct{ buf []byte }

// U64 appends one word.
func (e *MemoEncoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// F64 appends a float's bits.
func (e *MemoEncoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str appends a length-prefixed string.
func (e *MemoEncoder) Str(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Counts appends a count map in sorted key order.
func (e *MemoEncoder) Counts(m map[string]uint64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.U64(uint64(len(keys)))
	for _, k := range keys {
		e.Str(k)
		e.U64(m[k])
	}
}

// Bytes returns the payload.
func (e *MemoEncoder) Bytes() []byte { return e.buf }

// MemoDecoder reads what MemoEncoder wrote. A read past the end, or a
// count map whose keys do not strictly increase, marks it bad.
type MemoDecoder struct {
	buf []byte
	bad bool
}

// NewMemoDecoder decodes payload.
func NewMemoDecoder(payload []byte) *MemoDecoder { return &MemoDecoder{buf: payload} }

// U64 reads one word.
func (d *MemoDecoder) U64() uint64 {
	if len(d.buf) < 8 {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

// F64 reads a float's bits.
func (d *MemoDecoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Str reads a length-prefixed string.
func (d *MemoDecoder) Str() string {
	n := d.U64()
	if n > uint64(len(d.buf)) {
		d.bad = true
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// Counts reads a count map; an empty one decodes as nil.
func (d *MemoDecoder) Counts() map[string]uint64 {
	n := d.U64()
	if n > uint64(len(d.buf))/16 { // each entry takes at least two words
		d.bad = true
		return nil
	}
	var m map[string]uint64
	prev := ""
	for i := uint64(0); i < n && !d.bad; i++ {
		k := d.Str()
		if i > 0 && k <= prev {
			d.bad = true
		}
		if m == nil {
			m = make(map[string]uint64, n)
		}
		m[k] = d.U64()
		prev = k
	}
	return m
}

// Done reports whether the payload decoded cleanly with nothing left.
func (d *MemoDecoder) Done() bool { return !d.bad && len(d.buf) == 0 }

// wordMemo is a memo class whose value is one 8-byte little-endian word.
func wordMemo[K MemoKey](class string) PointMemo[K, uint64] {
	return PointMemo[K, uint64]{
		Class: class,
		Encode: func(v uint64) []byte {
			var e MemoEncoder
			e.U64(v)
			return e.Bytes()
		},
		Decode: func(b []byte) (uint64, bool) {
			d := NewMemoDecoder(b)
			v := d.U64()
			return v, d.Done()
		},
	}
}
