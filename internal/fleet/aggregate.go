package fleet

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"odrips/internal/memostore"
	"odrips/internal/platform"
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

// MemoReport is the shared-plane effectiveness section. Every run class
// is either executed by this job or loaded from the run memo.
type MemoReport struct {
	MemoClasses   int `json:"memo_classes"`
	RunClasses    int `json:"run_classes"`
	SimulatedRuns int `json:"simulated_runs"` // run classes this job executed on a platform
	LoadedRuns    int `json:"loaded_runs"`    // run classes served by the run memo

	// Cycle provenance across the whole fleet: a representative's cycles
	// were simulated in full or replayed from the memo plane when this
	// job executed its run, and neither when it loaded it; every other
	// member's were deduplicated outright (served by a copy of the
	// representative's result).
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

// residencyEdges are the histogram bin edges in DRIPS residency percent;
// the paper's 99.5% claim sits inside the fourth bin.
var residencyEdges = []float64{0, 90, 99, 99.5, 99.9, 100.0000001}

// wakeRateEdges bin devices by wakes per device-hour for the wake-storm
// histogram: 120/h is the paper's nominal 30 s timer cadence, so the
// bins below it catch coalesced fleets and the bins above are storm
// territory. The last bin is open-ended in practice (a cycle period is
// at least a millisecond, so no device can clear 1e7/h).
var wakeRateEdges = []float64{0, 30, 60, 90, 120, 180, 360, 720, 3600, 1e7}

// aggregate folds the run-class outcomes into the report. Each kind's
// values are computed once, and every integer output is a sum over run
// classes or kinds weighted by their member counts. Only the
// order-dependent float sums walk the devices, in index order, so each
// is the sum a per-device fold makes.
func aggregate(s Spec, t *classTable, runs []runOutcome) (*Report, error) {
	n := t.devices
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
	for r := range runs {
		if runs[r].executed {
			memo.SimulatedRuns++
		} else {
			memo.LoadedRuns++
		}
	}

	count := make([]int, len(t.kinds))
	t.tally(0, n, func(k, c int) { count[k] += c })
	runCount := make([]int, len(t.runs))
	for k, c := range count {
		runCount[t.kinds[k].run] += c
	}

	lifeH := make([]float64, len(t.kinds))
	powerMW := make([]float64, len(t.kinds))
	residencyPct := make([]float64, len(t.kinds))
	hours := make([]float64, len(t.kinds))
	for k := range t.kinds {
		kd := &t.kinds[k]
		sum := &runs[kd.run].sum
		life, err := kd.pack.StandbyHours(sum.AvgPowerMW)
		if err != nil {
			return nil, fmt.Errorf("fleet: device %d: %w", kd.first, err)
		}
		lifeH[k] = life
		powerMW[k] = sum.AvgPowerMW
		residencyPct[k] = sum.IdleResidency * 100
		hours[k] = sum.Duration.Seconds() / 3600
	}

	wakeBySource := map[string]uint64{}
	shallow := map[string]uint64{}
	maxWakeRate := 0.0
	rateHist := report.NewHist(wakeRateEdges...)
	var totalWakes uint64
	for r := range t.runs {
		out := &runs[r]
		sum := &out.sum
		c := uint64(runCount[r])
		var devWakes uint64
		for _, src := range sortedKeys(sum.WakeCounts) {
			wakeBySource[src] += c * sum.WakeCounts[src]
			devWakes += sum.WakeCounts[src]
		}
		totalWakes += c * devWakes
		if h := sum.Duration.Seconds() / 3600; h > 0 {
			rate := float64(devWakes) / h
			rateHist.ObserveN(rate, runCount[r])
			if rate > maxWakeRate {
				maxWakeRate = rate
			}
		}
		for _, st := range sortedKeys(sum.ShallowIdles) {
			shallow[st] += c * sum.ShallowIdles[st]
		}

		// Cycle provenance: a class representative carries the cycles its
		// run actually simulated; every other member's were deduplicated.
		cycles := uint64(sum.Cycles)
		agg.TotalDeviceCycles += c * cycles
		memo.SimulatedCycles += out.simulatedCycles()
		memo.ReplayedCycles += out.replayed
		memo.DedupedCycles += (c - 1) * cycles
	}
	if agg.TotalDeviceCycles > 0 {
		memo.CrossDeviceHitRatePct = 100 * (1 - float64(memo.SimulatedCycles)/float64(agg.TotalDeviceCycles))
	}

	shards := make([]ShardAgg, t.shards)
	for i := range shards {
		sh := &shards[i]
		lo, hi := t.shardStart(i), t.shardStart(i+1)
		sh.Shard, sh.Devices = i, hi-lo
		// c is -1 only to take back a member counted just before, so the
		// wrapped uint64 product cancels in the sum.
		t.tally(lo, hi, func(k, c int) { sh.DeviceCycles += uint64(c) * uint64(runs[t.kinds[k].run].sum.Cycles) })
	}
	for r := range t.runs {
		shards[t.runs[r].rep*t.shards/n].SimulatedCycles += runs[r].simulatedCycles()
	}

	// The float sums, in device-index order over a kind index from i.
	var simHours, lifeSum, powerSum, residencySum float64
	slot, e := 0, 0
	for i := range shards {
		sh := &shards[i]
		var shLife, shPower float64
		for d := t.shardStart(i); d < t.shardStart(i+1); d++ {
			k := t.slots[slot]
			if e < len(t.exceptions) && t.exceptions[e].device == d {
				k = t.exceptions[e].kind
				e++
			}
			if slot++; slot == len(t.slots) {
				slot = 0
			}
			simHours += hours[k]
			lifeSum += lifeH[k]
			powerSum += powerMW[k]
			residencySum += residencyPct[k]
			shLife += lifeH[k]
			shPower += powerMW[k]
		}
		sh.MeanBatteryLifeHours = shLife / float64(sh.Devices)
		sh.MeanAvgPowerMW = shPower / float64(sh.Devices)
		if sh.DeviceCycles > 0 {
			sh.MemoHitRatePct = 100 * (1 - float64(sh.SimulatedCycles)/float64(sh.DeviceCycles))
		}
	}
	agg.TotalSimHours = simHours

	agg.BatteryLifeHours = weightedDist(lifeH, count, lifeSum)
	agg.AvgPowerMW = weightedDist(powerMW, count, powerSum)
	agg.DRIPSResidencyPct = weightedDist(residencyPct, count, residencySum)
	for b := 0; b+1 < len(residencyEdges); b++ {
		bucket := Bucket{LoPct: residencyEdges[b], HiPct: math.Min(residencyEdges[b+1], 100)}
		for k, r := range residencyPct {
			if r >= residencyEdges[b] && r < residencyEdges[b+1] {
				bucket.Devices += count[k]
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
	rep.Shards = shards
	return rep, nil
}

// simulatedCycles is how many of the run's cycles this job simulated in
// full: none for a loaded run.
func (o *runOutcome) simulatedCycles() uint64 {
	if !o.executed {
		return 0
	}
	return uint64(o.sum.Cycles) - o.replayed
}

// weightedDist summarizes a fleet whose kind k holds count[k] devices
// of value values[k]; sum is the per-device sum in device order. Each
// percentile is the element report.Percentiles picks by nearest rank
// over the expanded per-device values, found by a weighted walk over
// the kinds in sort.Float64s order.
func weightedDist(values []float64, count []int, sum float64) Dist {
	n := 0
	for _, c := range count {
		n += c
	}
	order := make([]int, len(values))
	for k := range order {
		order[k] = k
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(values[a], values[b]) })
	var p [8]float64
	for i, q := range [8]float64{0, 5, 25, 50, 75, 95, 99, 100} {
		rank := min(max(int(math.Ceil(q/100*float64(n)))-1, 0), n-1)
		for _, k := range order {
			if rank < count[k] {
				p[i] = values[k]
				break
			}
			rank -= count[k]
		}
	}
	return Dist{
		Min: p[0], P5: p[1], P25: p[2], P50: p[3],
		P75: p[4], P95: p[5], P99: p[6], Max: p[7],
		Mean: sum / float64(n),
	}
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
	memo.AddRow("loaded runs", fmt.Sprintf("%d", m.LoadedRuns))
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
