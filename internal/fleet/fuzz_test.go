package fleet

import (
	"errors"
	"reflect"
	"testing"
)

// FuzzJobSpec pins the job-spec decoder's serving contract: arbitrary
// bytes either fail with a typed *SpecError or decode to a spec whose
// canonical encoding is a fixpoint (Encode∘Parse stabilizes after one
// round and Parse∘Encode is the identity). Panics and untyped errors
// are the bugs this target hunts — the server feeds it raw request
// bodies. Wired into `make fuzz` and nightly-fuzz.yml.
func FuzzJobSpec(f *testing.F) {
	f.Add([]byte(`{"devices": 100}`))
	f.Add([]byte(`{
		"name": "nightly", "devices": 100, "preset": "odrips",
		"horizon": "6h", "wake_period": "30s", "shards": 4,
		"spread": {
			"drift_ppb": [0, 40],
			"battery_mwh": [36000], "jitter_steps": ["0s", "250ms"],
			"faults": [{"device": 3, "plan": "wake@1.3"}]
		}
	}`))
	f.Add([]byte(`{"devices": 1, "horizon": "1h30m", "active": "250us"}`))
	f.Add([]byte(`{"devices": 0}`))
	f.Add([]byte(`{"devices": 2, "typo_knob": 3}`))
	f.Add([]byte(`{"devices": 2, "spread": {"seed_base": 10, "seed_stride": 3}}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"devices": 1, "wake_period": "-30s"}`))
	f.Add([]byte(`{"devices":12,"horizon":"2m"} {"devices":99999999}`))
	f.Add([]byte(`{"devices": 2, "workers": 3}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpecJSON(data)
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("untyped error %T from %q: %v", err, data, err)
			}
			return
		}
		c1, err := EncodeSpecJSON(s)
		if err != nil {
			t.Fatalf("parsed spec does not encode: %v (input %q)", err, data)
		}
		s2, err := ParseSpecJSON(c1)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v (canonical %s)", err, c1)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("round trip changed the spec:\n was %+v\n now %+v\n canonical %s", s, s2, c1)
		}
		c2, err := EncodeSpecJSON(s2)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if string(c1) != string(c2) {
			t.Fatalf("canonical form is not a fixpoint:\n c1 %s\n c2 %s", c1, c2)
		}
	})
}
