package experiments

import (
	"testing"

	"odrips/internal/platform"
	"odrips/internal/sim"
)

// TestCanonicalPointConfigIdentities proves each canonicalization rule
// empirically: a configuration and its canonical form must measure
// bit-identically with a cold cache, because a cache hit substitutes one
// for the other.
func TestCanonicalPointConfigIdentities(t *testing.T) {
	base := platform.ODRIPSConfig()
	variants := map[string]func(platform.Config) platform.Config{
		"seed":        func(c platform.Config) platform.Config { c.Seed = 7; return c },
		"tdp-default": func(c platform.Config) platform.Config { c.TDPWatts = 15; return c },
		"reinit-unit": func(c platform.Config) platform.Config { c.ExitReinitScale = 1; return c },
		"llc-default": func(c platform.Config) platform.Config {
			c.LLCDirtyFraction = platform.Skylake().LLCDirtyFraction
			return c
		},
		"fet-default": func(c platform.Config) platform.Config { c.FETLeakageFraction = 0.003; return c },
	}
	const residency = 4 * sim.Millisecond
	for name, mutate := range variants {
		t.Run(name, func(t *testing.T) {
			cfg := mutate(base)
			if canonicalPointConfig(cfg) != canonicalPointConfig(base) {
				t.Fatalf("canonical forms differ: %+v vs %+v",
					canonicalPointConfig(cfg), canonicalPointConfig(base))
			}
			want, err := NewRuntime(nil, platform.FFOn, 0).sweepAverage(base, residency, 1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := NewRuntime(nil, platform.FFOn, 0).sweepAverage(cfg, residency, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("variant measures %.12f mW, canonical base %.12f mW — the cache would lie", got, want)
			}
		})
	}
}

// TestCanonicalPointConfigPreservesRealKnobs: knobs that do change
// measurements must survive canonicalization.
func TestCanonicalPointConfigPreservesRealKnobs(t *testing.T) {
	base := platform.ODRIPSConfig()
	for name, mutate := range map[string]func(platform.Config) platform.Config{
		"tdp-9w":     func(c platform.Config) platform.Config { c.TDPWatts = 9; return c },
		"reinit-2x":  func(c platform.Config) platform.Config { c.ExitReinitScale = 2; return c },
		"llc-half":   func(c platform.Config) platform.Config { c.LLCDirtyFraction = 0.5; return c },
		"fet-leaky":  func(c platform.Config) platform.Config { c.FETLeakageFraction = 0.05; return c },
		"techniques": func(c platform.Config) platform.Config { c.Techniques = platform.WakeUpOff; return c },
	} {
		if canonicalPointConfig(mutate(base)) == canonicalPointConfig(base) {
			t.Errorf("%s collapsed into the base fingerprint class", name)
		}
	}
}

// TestCanonicalDedupAcrossExperiments is the satellite's goal state: two
// experiments expressing the same steady state differently share cache
// entries, so the second sweep half is free.
func TestCanonicalDedupAcrossExperiments(t *testing.T) {
	rt := NewRuntime(nil, platform.FFOn, 0)
	base := platform.ODRIPSConfig()
	if _, err := rt.sweepAverage(base, 2*sim.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	entries := rt.sweep.Len()

	tdpRow := base
	tdpRow.TDPWatts = 15 // the TDP study's calibration row
	if _, err := rt.sweepAverage(tdpRow, 2*sim.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if after := rt.sweep.Len(); after != entries {
		t.Errorf("equivalent config added %d cache entries; want a hit", after-entries)
	}
}
