package workload

import (
	"bytes"
	"testing"
)

// FuzzParseTrace pins the trace parser's contract: arbitrary bytes
// either fail with an error or parse to cycles with a non-negative
// active period and a positive idle period, never a panic. It is seeded
// with non-finite and overflowing millisecond values. Wired into
// `make fuzz` and nightly-fuzz.yml.
func FuzzParseTrace(f *testing.F) {
	for _, s := range []string{
		"2,NaN,timer",
		"NaN,100,timer",
		"2,Inf,timer",
		"2,1e13,timer",
		"active_ms,idle_ms,wake\n150,30000,timer\n0,5000,external\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cycles, err := ParseTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, c := range cycles {
			if c.Active < 0 || c.Idle <= 0 {
				t.Fatalf("cycle %d of %q: active %v, idle %v", i, data, c.Active, c.Idle)
			}
		}
	})
}
