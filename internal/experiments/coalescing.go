package experiments

import (
	"fmt"

	"odrips/internal/device"
	"odrips/internal/platform"
	"odrips/internal/power"
	"odrips/internal/report"
	"odrips/internal/sim"
	"odrips/internal/workload"
)

// CoalescingRow is one buffer size of the Observation-1 study.
type CoalescingRow struct {
	Label        string
	WakesPerHour float64
	AvgMW        float64
	IdlePct      float64
	Overflows    uint64
}

// CoalescingResult quantifies the paper's Observation 1: peripheral
// buffering is what affords millisecond-scale DRIPS exit latencies. Bigger
// device buffers coalesce interrupts into fewer wakes and push average
// power toward the idle floor; a device with a too-small buffer reports an
// LTR tolerance below the C10 exit latency and pins the platform out of
// DRIPS entirely.
type CoalescingResult struct {
	Rows []CoalescingRow
}

// WakeCoalescing sweeps the NIC RX buffer size on the ODRIPS platform with
// 20 KB/s of background ingress. The buffer points — plus the LTR gating
// end of the spectrum, an isochronous consumer whose buffer depth
// undercuts the C10 exit latency and keeps the platform out of DRIPS no
// matter what the NIC does — are independent platform runs and evaluate in
// parallel.
func (rt *Runtime) WakeCoalescing() (*CoalescingResult, error) {
	sizes := []int{16, 32, 64, 128, 256}
	rows, err := RunPoints(rt, len(sizes)+1,
		func(i int) string {
			if i == len(sizes) {
				return "LTR-gated audio"
			}
			return fmt.Sprintf("%d KiB RX buffer", sizes[i])
		},
		func(i int) (CoalescingRow, error) {
			if i == len(sizes) {
				row, _, err := coalesceMemo.Get(rt, coalesceKey{}, rt.coalescingGatedPoint)
				return row, err
			}
			row, _, err := coalesceMemo.Get(rt, coalesceKey{rxKiB: sizes[i]}, func() (CoalescingRow, error) {
				row, _, err := rt.coalescingPoint(sizes[i])
				return row, err
			})
			return row, err
		})
	if err != nil {
		return nil, err
	}
	return &CoalescingResult{Rows: rows}, nil
}

// coalesceKey identifies one row by its NIC RX buffer; 0 is the
// LTR-gated audio row, which runs no NIC.
type coalesceKey struct{ rxKiB int }

// StoreKey renders the row's stable store key.
func (k coalesceKey) StoreKey() []byte { return fmt.Appendf(nil, "rx=%dKiB", k.rxKiB) }

var coalesceMemo = PointMemo[coalesceKey, CoalescingRow]{
	Class: "coalesce",
	Encode: func(r CoalescingRow) []byte {
		var e MemoEncoder
		e.Str(r.Label)
		e.F64(r.WakesPerHour)
		e.F64(r.AvgMW)
		e.F64(r.IdlePct)
		e.U64(r.Overflows)
		return e.Bytes()
	},
	Decode: func(b []byte) (CoalescingRow, bool) {
		d := NewMemoDecoder(b)
		r := CoalescingRow{Label: d.Str(), WakesPerHour: d.F64(), AvgMW: d.F64(), IdlePct: d.F64(), Overflows: d.U64()}
		return r, d.Done()
	},
}

// coalescingPoint runs one RX buffer size, reporting its row and what the
// fast-forward engine did for it.
func (rt *Runtime) coalescingPoint(bufKiB int) (CoalescingRow, platform.FFStats, error) {
	p, err := rt.NewPlatform(platform.ODRIPSConfig())
	if err != nil {
		return CoalescingRow{}, platform.FFStats{}, err
	}
	nic, err := device.NewNIC(p.Scheduler(), p.LTR(), p, device.NICConfig{
		Name:        "nic",
		RateKBps:    20,
		PacketBytes: 1500,
		BufferBytes: bufKiB << 10,
		Seed:        11,
	})
	if err != nil {
		return CoalescingRow{}, platform.FFStats{}, err
	}
	nic.Start()
	p.OnQuiesce(nic.Stop)
	// Forty OS cycles; the NIC usually wakes the platform first.
	res, err := p.RunCycles(workload.Fixed(40, 0, 30*sim.Second))
	if err != nil {
		return CoalescingRow{}, platform.FFStats{}, err
	}
	var wakes uint64
	for _, n := range res.WakeCounts {
		wakes += n
	}
	_, _, overflows := nic.Stats()
	return CoalescingRow{
		Label:        fmt.Sprintf("%d KiB RX buffer", bufKiB),
		WakesPerHour: float64(wakes) / res.Duration.Seconds() * 3600,
		AvgMW:        res.AvgPowerMW,
		IdlePct:      100 * res.Residency[power.Idle],
		Overflows:    overflows,
	}, p.FFStats(), nil
}

func (rt *Runtime) coalescingGatedPoint() (CoalescingRow, error) {
	p, err := rt.NewPlatform(platform.ODRIPSConfig())
	if err != nil {
		return CoalescingRow{}, err
	}
	// 100 us of audio buffer: below every deep state's exit latency.
	device.StartAudioStream(p.LTR(), 100*sim.Microsecond)
	res, err := p.RunCycles(workload.Fixed(4, 0, 30*sim.Second))
	if err != nil {
		return CoalescingRow{}, err
	}
	var wakes uint64
	for _, n := range res.WakeCounts {
		wakes += n
	}
	return CoalescingRow{
		Label:        "0.1 ms audio buffer (LTR pins shallow)",
		WakesPerHour: float64(wakes) / res.Duration.Seconds() * 3600,
		AvgMW:        res.AvgPowerMW,
		IdlePct:      100 * res.Residency[power.Idle],
	}, nil
}

// Table renders the study.
func (r *CoalescingResult) Table() *report.Table {
	t := report.NewTable("Observation 1 — buffering, wake coalescing, and LTR gating (ODRIPS)",
		"Device buffering", "Wakes/hour", "Avg power", "DRIPS residency", "Drops")
	for _, row := range r.Rows {
		t.AddRow(row.Label,
			fmt.Sprintf("%.0f", row.WakesPerHour),
			fmt.Sprintf("%.1f mW", row.AvgMW),
			fmt.Sprintf("%.2f%%", row.IdlePct),
			fmt.Sprintf("%d", row.Overflows))
	}
	t.AddNote("bigger buffers coalesce wakes and push power toward the %.1f mW idle floor;", 43.4)
	t.AddNote("a buffer below the C10 exit latency forbids DRIPS via LTR (§2.2)")
	return t
}
