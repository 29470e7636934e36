package fleet

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"odrips/internal/memostore"
	"odrips/internal/platform"
	"odrips/internal/power"
	"odrips/internal/report"
)

// Report is a fleet job's full output. Aggregates is the physics: it is
// byte-identical at any shard count, worker count, and fast-forward mode.
// Memo and Shards describe how the work was executed (memo-plane
// effectiveness, per-shard breakdown) — deterministic for a fixed spec
// and quiescent plane, but legitimately different across fast-forward
// modes and shard counts.
type Report struct {
	Name    string `json:"name"`
	Preset  string `json:"preset"`
	Devices int    `json:"devices"`

	Aggregates Aggregates `json:"aggregates"`
	Memo       MemoReport `json:"memo"`
	Shards     []ShardAgg `json:"shards"`
}

// Dist is a deterministic distribution summary (nearest-rank
// percentiles over the per-device values in device-index order).
type Dist struct {
	Min  float64 `json:"min"`
	P5   float64 `json:"p5"`
	P25  float64 `json:"p25"`
	P50  float64 `json:"p50"`
	P75  float64 `json:"p75"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// Bucket is one residency histogram bin: devices whose DRIPS residency
// share lands in [LoPct, HiPct).
type Bucket struct {
	LoPct   float64 `json:"lo_pct"`
	HiPct   float64 `json:"hi_pct"`
	Devices int     `json:"devices"`
}

// SourceCount is a named counter (wake source, shallow state).
type SourceCount struct {
	Name  string `json:"name"`
	Count uint64 `json:"count"`
}

// WakeAgg is the fleet's wake accounting: totals by source plus the
// wake-storm view (the per-device wake-rate histogram and the hottest
// device) and the coalescing view (idle windows parked shallow instead
// of reaching DRIPS).
type WakeAgg struct {
	BySource          []SourceCount       `json:"by_source"`
	MeanPerDeviceHour float64             `json:"mean_per_device_hour"`
	MaxPerDeviceHour  float64             `json:"max_per_device_hour"` // wake storm
	RateHist          []report.HistBucket `json:"rate_hist"`           // devices by wakes/hour
	ShallowIdles      []SourceCount       `json:"shallow_idles"`       // coalescing shortfall
}

// Aggregates is the shard- and execution-independent fleet physics.
type Aggregates struct {
	TotalDeviceCycles uint64  `json:"total_device_cycles"`
	TotalSimHours     float64 `json:"total_sim_hours"`

	BatteryLifeHours  Dist     `json:"battery_life_hours"`
	AvgPowerMW        Dist     `json:"avg_power_mw"`
	DRIPSResidencyPct Dist     `json:"drips_residency_pct"`
	ResidencyHist     []Bucket `json:"residency_hist"`
	Wakes             WakeAgg  `json:"wakes"`
}

// MemoReport is the shared-plane effectiveness section.
type MemoReport struct {
	MemoClasses   int `json:"memo_classes"`
	RunClasses    int `json:"run_classes"`
	SimulatedRuns int `json:"simulated_runs"` // platform executions, one per run class

	// Cycle provenance across the whole fleet: every device-cycle was
	// either simulated in full (by a class representative), replayed from
	// the memo plane by a representative, or deduplicated outright
	// (served by a representative's result copy).
	SimulatedCycles uint64 `json:"simulated_cycles"`
	ReplayedCycles  uint64 `json:"replayed_cycles"`
	DedupedCycles   uint64 `json:"deduped_cycles"`

	// CrossDeviceHitRatePct is the headline metric: the share of fleet
	// device-cycles that did NOT need full simulation.
	CrossDeviceHitRatePct float64 `json:"cross_device_hit_rate_pct"`

	Plane platform.MemoPlaneStats `json:"plane"`
	Store memostore.Stats         `json:"store"`
}

// ShardAgg is one shard's slice of the fleet.
type ShardAgg struct {
	Shard   int `json:"shard"`
	Devices int `json:"devices"`

	MeanBatteryLifeHours float64 `json:"mean_battery_life_hours"`
	MeanAvgPowerMW       float64 `json:"mean_avg_power_mw"`

	DeviceCycles    uint64  `json:"device_cycles"`
	SimulatedCycles uint64  `json:"simulated_cycles"`
	MemoHitRatePct  float64 `json:"memo_hit_rate_pct"`
}

// dist summarizes values (indexed by device) with nearest-rank
// percentiles (report.Percentiles, the shared deterministic encoder).
func dist(values []float64) Dist {
	if len(values) == 0 {
		return Dist{}
	}
	p := report.Percentiles(values, 0, 5, 25, 50, 75, 95, 99, 100)
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return Dist{
		Min: p[0], P5: p[1], P25: p[2], P50: p[3],
		P75: p[4], P95: p[5], P99: p[6], Max: p[7],
		Mean: sum / float64(len(values)),
	}
}

// residencyEdges are the histogram bin edges in DRIPS residency percent;
// the paper's 99.5% claim sits inside the fourth bin.
var residencyEdges = []float64{0, 90, 99, 99.5, 99.9, 100.0000001}

// wakeRateEdges bin devices by wakes per device-hour for the wake-storm
// histogram: 120/h is the paper's nominal 30 s timer cadence, so the
// bins below it catch coalesced fleets and the bins above are storm
// territory. The last bin is open-ended in practice (a cycle period is
// at least a millisecond, so no device can clear 1e7/h).
var wakeRateEdges = []float64{0, 30, 60, 90, 120, 180, 360, 720, 3600, 1e7}

// aggregate folds the run-class outcomes into the report, patching each
// device's run-class result with its own battery pack. All loops run in
// device-index order, so every float accumulation is order-deterministic.
func aggregate(s Spec, t *classTable, runs []runOutcome) (*Report, error) {
	n := len(t.devices)
	lifeH := make([]float64, n)
	powerMW := make([]float64, n)
	residencyPct := make([]float64, n)

	rep := &Report{
		Name:    s.Name,
		Preset:  s.Preset,
		Devices: n,
	}
	if rep.Preset == "" {
		rep.Preset = "odrips"
	}
	agg := &rep.Aggregates
	memo := &rep.Memo
	memo.RunClasses = len(t.runs)
	memo.MemoClasses = len(t.memos)
	memo.SimulatedRuns = len(t.runs)

	shards := make([]ShardAgg, s.Shards)
	for i := range shards {
		shards[i].Shard = i
	}
	wakeBySource := map[string]uint64{}
	shallow := map[string]uint64{}
	maxWakeRate := 0.0
	rateHist := report.NewHist(wakeRateEdges...)
	var totalWakes uint64
	var simByDevice uint64

	for i := range t.devices {
		d := &t.devices[i]
		rc := &t.runs[d.run]
		out := runs[d.run]
		res := out.res
		hours := res.Duration.Seconds() / 3600
		life, err := d.pack.StandbyHours(res.AvgPowerMW)
		if err != nil {
			return nil, fmt.Errorf("fleet: device %d: %w", i, err)
		}
		lifeH[i] = life
		powerMW[i] = res.AvgPowerMW
		residencyPct[i] = res.Residency[power.Idle] * 100

		agg.TotalDeviceCycles += uint64(res.Cycles)
		agg.TotalSimHours += hours

		var devWakes uint64
		for _, src := range sortedKeys(res.WakeCounts) {
			wakeBySource[src] += res.WakeCounts[src]
			devWakes += res.WakeCounts[src]
		}
		totalWakes += devWakes
		if hours > 0 {
			rate := float64(devWakes) / hours
			rateHist.Observe(rate)
			if rate > maxWakeRate {
				maxWakeRate = rate
			}
		}
		for _, st := range sortedKeys(res.ShallowIdles) {
			shallow[st] += res.ShallowIdles[st]
		}

		// Cycle provenance: class representatives carry the cycles their
		// run actually simulated; every other device's cycles were
		// deduplicated.
		var devSim uint64
		if rc.rep == i {
			devSim = uint64(res.Cycles) - out.ff.CyclesReplayed
			memo.ReplayedCycles += out.ff.CyclesReplayed
		} else {
			memo.DedupedCycles += uint64(res.Cycles)
		}
		simByDevice += devSim

		sh := &shards[d.shard]
		sh.Devices++
		sh.MeanBatteryLifeHours += life
		sh.MeanAvgPowerMW += res.AvgPowerMW
		sh.DeviceCycles += uint64(res.Cycles)
		sh.SimulatedCycles += devSim
	}
	memo.SimulatedCycles = simByDevice
	if agg.TotalDeviceCycles > 0 {
		memo.CrossDeviceHitRatePct = 100 * (1 - float64(memo.SimulatedCycles)/float64(agg.TotalDeviceCycles))
	}

	agg.BatteryLifeHours = dist(lifeH)
	agg.AvgPowerMW = dist(powerMW)
	agg.DRIPSResidencyPct = dist(residencyPct)
	for b := 0; b+1 < len(residencyEdges); b++ {
		bucket := Bucket{LoPct: residencyEdges[b], HiPct: math.Min(residencyEdges[b+1], 100)}
		for _, r := range residencyPct {
			if r >= residencyEdges[b] && r < residencyEdges[b+1] {
				bucket.Devices++
			}
		}
		agg.ResidencyHist = append(agg.ResidencyHist, bucket)
	}
	for _, src := range sortedKeys(wakeBySource) {
		agg.Wakes.BySource = append(agg.Wakes.BySource, SourceCount{Name: src, Count: wakeBySource[src]})
	}
	for _, st := range sortedKeys(shallow) {
		agg.Wakes.ShallowIdles = append(agg.Wakes.ShallowIdles, SourceCount{Name: st, Count: shallow[st]})
	}
	if agg.TotalSimHours > 0 {
		agg.Wakes.MeanPerDeviceHour = float64(totalWakes) / agg.TotalSimHours
	}
	agg.Wakes.MaxPerDeviceHour = maxWakeRate
	agg.Wakes.RateHist = rateHist.Buckets()

	for i := range shards {
		sh := &shards[i]
		if sh.Devices > 0 {
			sh.MeanBatteryLifeHours /= float64(sh.Devices)
			sh.MeanAvgPowerMW /= float64(sh.Devices)
		}
		if sh.DeviceCycles > 0 {
			sh.MemoHitRatePct = 100 * (1 - float64(sh.SimulatedCycles)/float64(sh.DeviceCycles))
		}
	}
	rep.Shards = shards
	return rep, nil
}

// sortedKeys returns a map's keys sorted, for deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// JSON renders the report as stable, indented JSON.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Tables renders the report as text tables.
func (r *Report) Tables() []*report.Table {
	agg := report.NewTable(fmt.Sprintf("Fleet %q: %d devices (%s)", r.Name, r.Devices, r.Preset),
		"metric", "min", "p5", "p50", "p95", "p99", "max", "mean")
	row := func(name string, d Dist, f string) {
		agg.AddRow(name,
			fmt.Sprintf(f, d.Min), fmt.Sprintf(f, d.P5), fmt.Sprintf(f, d.P50),
			fmt.Sprintf(f, d.P95), fmt.Sprintf(f, d.P99), fmt.Sprintf(f, d.Max),
			fmt.Sprintf(f, d.Mean))
	}
	row("battery life (h)", r.Aggregates.BatteryLifeHours, "%.1f")
	row("avg power (mW)", r.Aggregates.AvgPowerMW, "%.3f")
	row("DRIPS residency (%)", r.Aggregates.DRIPSResidencyPct, "%.3f")
	agg.AddNote("%d device-cycles over %.0f simulated device-hours",
		r.Aggregates.TotalDeviceCycles, r.Aggregates.TotalSimHours)
	for _, b := range r.Aggregates.ResidencyHist {
		if b.Devices > 0 {
			agg.AddNote("residency [%.1f%%, %.1f%%): %d device(s)", b.LoPct, b.HiPct, b.Devices)
		}
	}
	for _, sc := range r.Aggregates.Wakes.BySource {
		agg.AddNote("wakes from %s: %d", sc.Name, sc.Count)
	}
	agg.AddNote("wake rate: mean %.1f/device-hour, storm max %.1f/device-hour",
		r.Aggregates.Wakes.MeanPerDeviceHour, r.Aggregates.Wakes.MaxPerDeviceHour)
	for _, b := range r.Aggregates.Wakes.RateHist {
		if b.Count > 0 {
			agg.AddNote("wake rate [%g/h, %g/h): %d device(s)", b.Lo, b.Hi, b.Count)
		}
	}

	memo := report.NewTable("Shared memo plane", "metric", "value")
	m := &r.Memo
	memo.AddRow("memo classes", fmt.Sprintf("%d", m.MemoClasses))
	memo.AddRow("run classes", fmt.Sprintf("%d", m.RunClasses))
	memo.AddRow("simulated runs", fmt.Sprintf("%d", m.SimulatedRuns))
	memo.AddRow("simulated cycles", fmt.Sprintf("%d", m.SimulatedCycles))
	memo.AddRow("replayed cycles", fmt.Sprintf("%d", m.ReplayedCycles))
	memo.AddRow("deduped cycles", fmt.Sprintf("%d", m.DedupedCycles))
	memo.AddRow("cross-device hit rate", fmt.Sprintf("%.3f%%", m.CrossDeviceHitRatePct))
	memo.AddRow("plane classes", fmt.Sprintf("%d/%d", m.Plane.Classes, m.Plane.MaxClasses))
	memo.AddRow("plane records", fmt.Sprintf("%d (adopted %d)", m.Plane.Records, m.Plane.Adopted))
	memo.AddRow("plane op records", fmt.Sprintf("%d", m.Plane.OpRecords))
	if m.Store != (memostore.Stats{}) {
		memo.AddRow("store hits/misses", fmt.Sprintf("%d/%d", m.Store.Hits, m.Store.Misses))
		memo.AddRow("store disk", fmt.Sprintf("%d entries, %d bytes", m.Store.DiskEntries, m.Store.DiskBytes))
	}

	shards := report.NewTable("Per-shard breakdown",
		"shard", "devices", "life mean (h)", "power mean (mW)", "cycles", "simulated", "hit rate")
	for _, sh := range r.Shards {
		shards.AddRow(
			fmt.Sprintf("%d", sh.Shard),
			fmt.Sprintf("%d", sh.Devices),
			fmt.Sprintf("%.1f", sh.MeanBatteryLifeHours),
			fmt.Sprintf("%.3f", sh.MeanAvgPowerMW),
			fmt.Sprintf("%d", sh.DeviceCycles),
			fmt.Sprintf("%d", sh.SimulatedCycles),
			fmt.Sprintf("%.3f%%", sh.MemoHitRatePct),
		)
	}
	return []*report.Table{agg, memo, shards}
}

// Text renders the full text report.
func (r *Report) Text() string {
	var b strings.Builder
	for _, t := range r.Tables() {
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	return b.String()
}

// Markdown renders the report as GitHub-flavored markdown.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Fleet %q — %d devices (%s)\n\n", r.Name, r.Devices, r.Preset)

	fmt.Fprintf(&b, "## Aggregates\n\n")
	fmt.Fprintf(&b, "| metric | min | p5 | p50 | p95 | p99 | max | mean |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|---|\n")
	mdDist := func(name string, d Dist, f string) {
		fmt.Fprintf(&b, "| %s | "+f+" | "+f+" | "+f+" | "+f+" | "+f+" | "+f+" | "+f+" |\n",
			name, d.Min, d.P5, d.P50, d.P95, d.P99, d.Max, d.Mean)
	}
	mdDist("battery life (h)", r.Aggregates.BatteryLifeHours, "%.1f")
	mdDist("avg power (mW)", r.Aggregates.AvgPowerMW, "%.3f")
	mdDist("DRIPS residency (%)", r.Aggregates.DRIPSResidencyPct, "%.3f")
	fmt.Fprintf(&b, "\n%d device-cycles over %.0f simulated device-hours; wake rate mean %.1f/device-hour (storm max %.1f).\n",
		r.Aggregates.TotalDeviceCycles, r.Aggregates.TotalSimHours,
		r.Aggregates.Wakes.MeanPerDeviceHour, r.Aggregates.Wakes.MaxPerDeviceHour)

	fmt.Fprintf(&b, "\n## Shared memo plane\n\n")
	fmt.Fprintf(&b, "| metric | value |\n|---|---|\n")
	fmt.Fprintf(&b, "| memo classes | %d |\n", r.Memo.MemoClasses)
	fmt.Fprintf(&b, "| run classes | %d |\n", r.Memo.RunClasses)
	fmt.Fprintf(&b, "| simulated runs | %d |\n", r.Memo.SimulatedRuns)
	fmt.Fprintf(&b, "| simulated / replayed / deduped cycles | %d / %d / %d |\n",
		r.Memo.SimulatedCycles, r.Memo.ReplayedCycles, r.Memo.DedupedCycles)
	fmt.Fprintf(&b, "| **cross-device hit rate** | **%.3f%%** |\n", r.Memo.CrossDeviceHitRatePct)
	fmt.Fprintf(&b, "| plane classes / records / adopted / op records | %d / %d / %d / %d |\n",
		r.Memo.Plane.Classes, r.Memo.Plane.Records, r.Memo.Plane.Adopted, r.Memo.Plane.OpRecords)
	if r.Memo.Store != (memostore.Stats{}) {
		fmt.Fprintf(&b, "| store hits / misses / disk | %d / %d / %d entries (%d bytes) |\n",
			r.Memo.Store.Hits, r.Memo.Store.Misses, r.Memo.Store.DiskEntries, r.Memo.Store.DiskBytes)
	}

	fmt.Fprintf(&b, "\n## Shards\n\n")
	fmt.Fprintf(&b, "| shard | devices | life mean (h) | power mean (mW) | hit rate |\n|---|---|---|---|---|\n")
	for _, sh := range r.Shards {
		fmt.Fprintf(&b, "| %d | %d | %.1f | %.3f | %.3f%% |\n",
			sh.Shard, sh.Devices, sh.MeanBatteryLifeHours, sh.MeanAvgPowerMW, sh.MemoHitRatePct)
	}
	return b.String()
}
