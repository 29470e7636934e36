// This external test package exercises the public odrips API (legal even
// though odrips imports experiments: external test packages may import
// their importers). It deliberately does not live in the root package:
// adding test code there shifts the root bench binary's code layout, which
// measurably skews the rand-bound microbenchmarks it hosts.
package experiments_test

import (
	"bytes"
	"fmt"
	"testing"

	"odrips"
)

// renderAllExperiments regenerates the full `odrips-bench -exp all` output
// (plus the opt-in fault sweep) on rt. A fresh runtime has cold point
// caches, so no measurement leaks between runtimes.
func renderAllExperiments(t *testing.T, rt *odrips.Runtime) []byte {
	t.Helper()
	mode := rt.FF()
	var buf bytes.Buffer
	sweep := odrips.DefaultSweep()

	run := func(name string, fn func() error) {
		if err := fn(); err != nil {
			t.Fatalf("%s at -fastforward=%v: %v", name, mode, err)
		}
	}
	run("table1", func() error { odrips.Table1().Render(&buf); return nil })
	run("fig1b", func() error {
		r, err := rt.Fig1b()
		if err != nil {
			return err
		}
		r.Table().Render(&buf)
		return nil
	})
	run("fig2", func() error {
		r, err := rt.Fig2()
		if err != nil {
			return err
		}
		r.Table().Render(&buf)
		return nil
	})
	run("fig3b", func() error {
		r, err := rt.Fig3b()
		if err != nil {
			return err
		}
		r.Table().Render(&buf)
		return nil
	})
	run("calibration", func() error {
		r, err := rt.Calibration()
		if err != nil {
			return err
		}
		r.Table().Render(&buf)
		return nil
	})
	run("fig6a", func() error {
		r, err := rt.Fig6a(sweep)
		if err != nil {
			return err
		}
		r.Table().Render(&buf)
		r.Chart().Render(&buf)
		return nil
	})
	run("fig6b", func() error {
		r, err := rt.Fig6b()
		if err != nil {
			return err
		}
		r.Table().Render(&buf)
		return nil
	})
	run("fig6c", func() error {
		r, err := rt.Fig6c()
		if err != nil {
			return err
		}
		r.Table().Render(&buf)
		return nil
	})
	run("fig6d", func() error {
		r, err := rt.Fig6d(sweep)
		if err != nil {
			return err
		}
		r.Table().Render(&buf)
		return nil
	})
	run("ctxlatency", func() error {
		r, err := rt.CtxLatency()
		if err != nil {
			return err
		}
		r.Table().Render(&buf)
		return nil
	})
	run("validation", func() error {
		r, err := rt.ModelValidation()
		if err != nil {
			return err
		}
		r.Table().Render(&buf)
		return nil
	})
	run("ablations", func() error {
		mc, err := rt.AblationMEECache()
		if err != nil {
			return err
		}
		mc.Table().Render(&buf)
		ta, err := rt.AblationTimerAlternatives()
		if err != nil {
			return err
		}
		ta.Table().Render(&buf)
		gg, err := rt.AblationIOGate()
		if err != nil {
			return err
		}
		gg.Table().Render(&buf)
		rs, err := rt.AblationReinitSensitivity()
		if err != nil {
			return err
		}
		rs.Table().Render(&buf)
		return nil
	})
	run("coalescing", func() error {
		r, err := rt.WakeCoalescing()
		if err != nil {
			return err
		}
		r.Table().Render(&buf)
		return nil
	})
	run("scaling", func() error {
		r, err := rt.ProcessScaling()
		if err != nil {
			return err
		}
		r.Table().Render(&buf)
		return nil
	})
	run("standby", func() error {
		r, err := rt.Standby()
		if err != nil {
			return err
		}
		r.Table().Render(&buf)
		return nil
	})
	run("anatomy", func() error {
		for _, tech := range []odrips.Technique{0, odrips.ODRIPS} {
			r, err := rt.TransitionAnatomy(tech)
			if err != nil {
				return err
			}
			r.Table(fmt.Sprintf("tech=%d", tech)).Render(&buf)
		}
		return nil
	})
	run("aging", func() error {
		r, err := odrips.CalibrationAging()
		if err != nil {
			return err
		}
		r.Table().Render(&buf)
		return nil
	})
	run("tdp", func() error {
		r, err := rt.TDPSensitivity()
		if err != nil {
			return err
		}
		r.Table().Render(&buf)
		return nil
	})
	run("wakelatency", func() error {
		r, err := rt.WakeLatency()
		if err != nil {
			return err
		}
		r.Table().Render(&buf)
		return nil
	})
	run("faultsweep", func() error {
		r, err := rt.FaultSweep()
		if err != nil {
			return err
		}
		r.Table().Render(&buf)
		return nil
	})
	return buf.Bytes()
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
		line := 1
		for i := range off {
			if i >= len(on) || off[i] != on[i] {
				break
			}
			if off[i] == '\n' {
				line++
			}
		}
		t.Fatalf("-exp all output diverged between -fastforward=off and on (first difference near line %d; %d vs %d bytes)",
			line, len(off), len(on))
	}
	verify := render(odrips.FFVerify)
	if !bytes.Equal(off, verify) {
		t.Fatalf("-exp all output diverged in -fastforward=verify (%d vs %d bytes)", len(off), len(verify))
	}
}
