package experiments

import (
	"testing"

	"odrips/internal/platform"
)

// TestCoalescingReplaysMEEOps pins MEE op replay in device-woken cycles
// (DESIGN.md §12, Layer 1): the NIC always has its next arrival queued, so
// no boundary is eligible for whole-cycle replay, yet every save and
// restore after the first recorded pair replays. Of the 40 saves and 40
// restores, three run for real: the first save (the engine is not yet in
// the post-restore state), the first restore and the second save (each
// recorded). The rows must not move.
func TestCoalescingReplaysMEEOps(t *testing.T) {
	for _, kib := range []int{16, 256} {
		want, _, err := NewRuntime(nil, platform.FFOff, 1).coalescingPoint(kib)
		if err != nil {
			t.Fatalf("%d KiB off: %v", kib, err)
		}
		for _, mode := range []platform.FFMode{platform.FFOff, platform.FFOn, platform.FFVerify} {
			row, st, err := NewRuntime(nil, mode, 1).coalescingPoint(kib)
			if err != nil {
				t.Fatalf("%d KiB %v: %v", kib, mode, err)
			}
			if row != want {
				t.Errorf("%d KiB %v: row %+v, want %+v (off)", kib, mode, row, want)
			}
			replayed := uint64(0)
			if mode == platform.FFOn {
				replayed = 77
			}
			if st.MEEOpsReplayed != replayed {
				t.Errorf("%d KiB %v: %d MEE ops replayed, want %d", kib, mode, st.MEEOpsReplayed, replayed)
			}
		}
	}
}
