package faults

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want Plan
	}{
		{"", Plan{}},
		{" ; ;", Plan{}},
		{"wake@1.3", Plan{Injections: []Injection{{Kind: WakeDuringEntry, Cycle: 1, Step: 3}}}},
		{"wakex@0.9", Plan{Injections: []Injection{{Kind: WakeDuringExit, Cycle: 0, Step: 9}}}},
		{"meefail@2:1", Plan{Injections: []Injection{{Kind: MEEFail, Cycle: 2, Arg: ArgPersistent}}}},
		{"meefail@2", Plan{Injections: []Injection{{Kind: MEEFail, Cycle: 2, Arg: ArgTransient}}}},
		{"bitflip@0:123456", Plan{Injections: []Injection{{Kind: DRAMBitFlip, Cycle: 0, Arg: 123456}}}},
		{"drift@1:-250000", Plan{Injections: []Injection{{Kind: TimerDrift, Cycle: 1, Arg: -250000}}}},
		{"fetglitch@4", Plan{Injections: []Injection{{Kind: FETGlitch, Cycle: 4}}}},
		{"wake@1.3; meefail@2:1 ;fetglitch@0", Plan{Injections: []Injection{
			{Kind: WakeDuringEntry, Cycle: 1, Step: 3},
			{Kind: MEEFail, Cycle: 2, Arg: ArgPersistent},
			{Kind: FETGlitch, Cycle: 0},
		}}},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if len(got.Injections) != len(c.want.Injections) {
			t.Fatalf("Parse(%q) = %v, want %v", c.in, got, c.want)
		}
		for i := range got.Injections {
			if got.Injections[i] != c.want.Injections[i] {
				t.Fatalf("Parse(%q)[%d] = %+v, want %+v", c.in, i, got.Injections[i], c.want.Injections[i])
			}
		}
		// Canonical render re-parses to the same plan.
		again, err := Parse(got.String())
		if err != nil {
			t.Fatalf("Parse(String(%q)): %v", c.in, err)
		}
		if again.String() != got.String() {
			t.Fatalf("round trip %q -> %q -> %q", c.in, got.String(), again.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"wake",              // no @cycle
		"nosuch@1",          // unknown kind
		"wake@x.1",          // bad cycle
		"wake@1.x",          // bad step
		"meefail@1:x",       // bad arg
		"meefail@1.2:0",     // step on a stepless kind
		"fetglitch@1:5",     // arg on an argless kind
		"wake@-1.0",         // negative cycle
		"wake@1.99",         // step beyond MaxStep
		"wake@9999999.0",    // cycle beyond MaxCycle
		"meefail@1:7",       // invalid MEEFail arg
		"bitflip@1:-2",      // negative bit offset
		"drift@1:999999999", // drift beyond bound
	}
	for _, in := range cases {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}

	var pe *ParseError
	if _, err := Parse("nosuch@1"); !errors.As(err, &pe) {
		t.Errorf("unknown kind error is %T, want *ParseError", err)
	}
	var ve *ValidationError
	if _, err := Parse("meefail@1:7"); !errors.As(err, &ve) {
		t.Errorf("bad arg error is %T, want *ValidationError", err)
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	bad := []Injection{
		{Kind: kindCount, Cycle: 0},
		{Kind: WakeDuringEntry, Cycle: -1},
		{Kind: WakeDuringEntry, Cycle: 0, Step: MaxStep + 1},
		{Kind: MEEFail, Cycle: 0, Arg: 2},
		{Kind: FETGlitch, Cycle: 0, Arg: 1},
		{Kind: DRAMBitFlip, Cycle: 0, Arg: -1},
		{Kind: TimerDrift, Cycle: 0, Arg: MaxDriftPPB + 1},
		{Kind: MEEFail, Cycle: 0, Step: 1, Arg: 0}, // step on stepless kind
	}
	for _, in := range bad {
		p := Plan{Injections: []Injection{in}}
		if err := p.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", in)
		}
	}
}

func TestRandomPlansValidateAndRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		p := Random(rng, rng.Intn(6), 5, 9, 10)
		if err := p.Validate(); err != nil {
			t.Fatalf("Random produced invalid plan %q: %v", p, err)
		}
		got, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", p, err)
		}
		if got.String() != p.String() {
			t.Fatalf("round trip %q -> %q", p, got)
		}
		if len(got.Injections) != len(p.Injections) {
			t.Fatalf("round trip lost injections: %q", p)
		}
		for j := range got.Injections {
			if got.Injections[j] != p.Injections[j] {
				t.Fatalf("round trip changed injection %d of %q", j, p)
			}
		}
	}
}

func TestEmptyPlan(t *testing.T) {
	var p Plan
	if p.String() != "" {
		t.Fatalf("zero plan renders %q", p.String())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if q, err := Parse("wake@0.0"); err != nil || len(q.Injections) == 0 {
		t.Fatal("non-empty plan reported empty")
	}
}

func TestKindStrings(t *testing.T) {
	want := []string{"wake", "wakex", "meefail", "bitflip", "drift", "fetglitch"}
	for k := Kind(0); k < kindCount; k++ {
		if k.String() != want[k] {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k, want[k])
		}
	}
	if !strings.HasPrefix(kindCount.String(), "Kind(") {
		t.Fatalf("out-of-range kind renders %q", kindCount)
	}
}
