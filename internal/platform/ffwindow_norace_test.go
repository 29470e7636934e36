//go:build !race

package platform

import (
	"reflect"
	"testing"

	"odrips/internal/sim"
	"odrips/internal/workload"
)

// TestCycleReplaySingleRun: an unattached six-hour run replays nearly
// all of its own steady state, byte-identical to a full simulation. The
// full simulation of 720 ODRIPS cycles takes seconds natively and ten
// times that under the race detector, which has nothing to check in one
// goroutine, hence the build tag.
func TestCycleReplaySingleRun(t *testing.T) {
	for name, cfg := range windowConfigs() {
		for _, idle := range []sim.Duration{30 * sim.Second, 30*sim.Second + 250*sim.Millisecond} {
			cfg, idle := cfg, idle
			t.Run(name+"/"+idle.String(), func(t *testing.T) {
				t.Parallel()
				cycles := workload.Fixed(720, 0, idle)
				resOff, traceOff, _ := runWithMode(t, cfg, FFOff, cycles)
				resOn, traceOn, st := runWithMode(t, cfg, FFOn, cycles)
				if !reflect.DeepEqual(resOn, resOff) {
					t.Fatalf("Result diverged:\noff: %+v\non:  %+v", resOff, resOn)
				}
				if !reflect.DeepEqual(traceOn, traceOff) {
					t.Fatalf("FlowTrace diverged")
				}
				t.Logf("recorded %d, replayed %d", st.CyclesRecorded, st.CyclesReplayed)
				if st.CyclesReplayed*100 < 95*uint64(len(cycles)) {
					t.Fatalf("replayed %d of %d cycles, want at least 95%%", st.CyclesReplayed, len(cycles))
				}
			})
		}
	}
}
