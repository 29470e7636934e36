package memostore

import (
	"bytes"
	"fmt"
	"testing"
)

// benchPopulate writes n deterministic loose entries (two classes,
// ~256 B payloads — the shape of a point-memo working set) and returns
// the store plus the (class, key) pairs for the load loop.
func benchPopulate(b *testing.B, n int) (s *Store, classes []string, keys [][]byte) {
	b.Helper()
	s, err := Open(b.TempDir(), RW)
	if err != nil {
		b.Fatal(err)
	}
	pad := bytes.Repeat([]byte{0x5A}, 224)
	classes = make([]string, n)
	keys = make([][]byte, n)
	for i := 0; i < n; i++ {
		class := "sweep"
		if i%2 == 1 {
			class = "trans"
		}
		key := []byte(fmt.Sprintf("cfg-%d", i))
		payload := append([]byte(fmt.Sprintf("payload-%d-%s-", i, class)), pad...)
		s.Save(class, key, payload)
		classes[i] = class
		keys[i] = key
	}
	if st := s.Stats(); st.WriteErrors != 0 || st.Writes != uint64(n) {
		b.Fatalf("populate: %+v", st)
	}
	return s, classes, keys
}

// BenchmarkStoreOpenWarm10k measures the warm-start cost a fleet process
// pays before its first simulation: open the shared store and load a
// 10,000-entry working set, one *.memo file read per entry. The "loose"
// sub-benchmark name is kept so the committed bench baselines still
// match it.
func BenchmarkStoreOpenWarm10k(b *testing.B) {
	const n = 10000
	b.Run("loose", func(b *testing.B) {
		s, classes, keys := benchPopulate(b, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ro, err := Open(s.Dir(), RO)
			if err != nil {
				b.Fatal(err)
			}
			for j := range keys {
				if _, ok, err := ro.Load(classes[j], keys[j]); !ok || err != nil {
					b.Fatalf("entry %d: ok=%v err=%v", j, ok, err)
				}
			}
		}
		b.ReportMetric(float64(n), "entries/op")
	})
}
