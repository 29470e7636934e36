// This external test package exercises the public odrips API (legal even
// though odrips imports experiments: external test packages may import
// their importers). It deliberately does not live in the root package:
// adding test code there shifts the root bench binary's code layout, which
// measurably skews the rand-bound microbenchmarks it hosts.
package experiments_test

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"odrips"
)

// renderAllExperiments renders every odrips.Experiments() entry except
// fleet on rt, in registry order: the `odrips-bench -exp all` output plus
// the opt-in fault sweep. fleet is left out because its memo-statistics
// table legitimately differs between fast-forward modes; its aggregates
// have their own identity checks (TestFleetDeterminism, make fleet-smoke).
// A fresh runtime has cold point caches, so no measurement leaks between
// runtimes.
func renderAllExperiments(t *testing.T, rt *odrips.Runtime) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range odrips.Experiments() {
		if e.Name == "fleet" {
			continue
		}
		if err := e.Render(rt, odrips.DefaultSweep(), &buf); err != nil {
			t.Fatalf("%s at -fastforward=%v: %v", e.Name, rt.FF(), err)
		}
	}
	return buf.Bytes()
}

// firstDiffLine returns the 1-based line on which a and b first differ.
func firstDiffLine(a, b []byte) int {
	line := 1
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			break
		}
		if a[i] == '\n' {
			line++
		}
	}
	return line
}

// TestExperimentRegistry pins the registry's shape: odrips-bench reserves
// "all" and "none" as selectors, names must select exactly one entry, and
// only the fault sweep and the fleet stay out of "all".
func TestExperimentRegistry(t *testing.T) {
	seen := map[string]bool{}
	var optIn []string
	for _, e := range odrips.Experiments() {
		if e.Name == "all" || e.Name == "none" {
			t.Errorf("experiment named %q shadows the -exp selector", e.Name)
		}
		if seen[e.Name] {
			t.Errorf("experiment %q registered twice", e.Name)
		}
		seen[e.Name] = true
		if e.OptIn {
			optIn = append(optIn, e.Name)
		}
	}
	sort.Strings(optIn)
	if got := strings.Join(optIn, ","); got != "faultsweep,fleet" {
		t.Errorf("opt-in experiments = %s, want faultsweep,fleet", got)
	}
}

// TestExpAllByteIdenticalAcrossFastForward is the acceptance criterion:
// the full experiment set renders byte-identically with the fast-forward
// engine on and off, and passes in verify mode (which re-simulates every
// memoized cycle and fails the run on any divergence).
func TestExpAllByteIdenticalAcrossFastForward(t *testing.T) {
	render := func(mode odrips.FFMode) []byte {
		rt, err := odrips.OpenRuntime("", "", mode, 0)
		if err != nil {
			t.Fatal(err)
		}
		return renderAllExperiments(t, rt)
	}
	off := render(odrips.FFOff)
	on := render(odrips.FFOn)
	if !bytes.Equal(off, on) {
		t.Fatalf("-exp all output diverged between -fastforward=off and on (first difference near line %d; %d vs %d bytes)",
			firstDiffLine(off, on), len(off), len(on))
	}
	verify := render(odrips.FFVerify)
	if !bytes.Equal(off, verify) {
		t.Fatalf("-exp all output diverged in -fastforward=verify (%d vs %d bytes)", len(off), len(verify))
	}
}
