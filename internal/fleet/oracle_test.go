package fleet

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"odrips/internal/battery"
	"odrips/internal/platform"
	"odrips/internal/report"
	"odrips/internal/sim"
)

// This file keeps the per-device fleet as the oracle for the kind-based
// one: a classification that visits every device and formats string
// keys, and the aggregation that patches and folds every device.

// device is one member of the per-device oracle table.
type device struct {
	run   int // run-class index
	pack  battery.Pack
	shard int
}

// formattedDevices classifies a fleet device by device: each device's
// config, cycle shape and fault plan derived from the spec
// independently of expand, and its identity the formatted strings
// platform.MemoClassKey and "<memo>|active=…|idle=…|n=…|plan=…".
func formattedDevices(s Spec) ([]device, []runClass, []memoClass) {
	base, _ := baseConfig(s.Preset)
	plans := map[int]string{}
	for _, df := range s.Spread.Faults {
		plans[df.Device] = df.Plan
	}
	devs := make([]device, s.Devices)
	var runs []runClass
	var memos []memoClass
	memoOf := map[string]int{}
	runOf := map[string]int{}
	for i := range devs {
		cfg := base
		if n := len(s.Spread.DriftPPB); n > 0 {
			cfg.XtalSlowPPB += s.Spread.DriftPPB[i%n]
		}
		idle := s.WakePeriod
		if n := len(s.Spread.JitterSteps); n > 0 {
			idle += s.Spread.JitterSteps[i%n]
		}
		cycles := int(s.Horizon / (s.Active + idle))
		if cycles < 1 {
			cycles = 1
		}
		pack := battery.Tablet()
		if n := len(s.Spread.BatteryMWh); n > 0 {
			pack.CapacityMWh = s.Spread.BatteryMWh[i%n]
		}
		memoKey := platform.MemoClassKey(cfg)
		runKey := fmt.Sprintf("%s|active=%d|idle=%d|n=%d|plan=%s",
			memoKey, int64(s.Active), int64(idle), cycles, plans[i])

		m, ok := memoOf[memoKey]
		if !ok {
			m = len(memos)
			memoOf[memoKey] = m
			memos = append(memos, memoClass{key: memoKey, run: -1})
		}
		r, ok := runOf[runKey]
		if !ok {
			r = len(runs)
			runOf[runKey] = r
			runs = append(runs, runClass{rep: i, cfg: cfg, idle: idle, cycles: cycles, plan: plans[i], memo: m})
		}
		if memos[m].run < 0 {
			memos[m].run = r
		}
		devs[i] = device{run: r, pack: pack, shard: i * s.Shards / s.Devices}
	}
	return devs, runs, memos
}

// formattedClasses is the oracle classification as a class table with
// one slot per device and no exceptions, the degenerate period every
// fleet admits.
func formattedClasses(s Spec) classTable {
	devs, runs, memos := formattedDevices(s)
	t := classTable{devices: s.Devices, shards: s.Shards, slots: make([]int, s.Devices), runs: runs, memos: memos}
	type kindKey struct {
		run int
		mwh float64
	}
	kindOf := map[kindKey]int{}
	for i, d := range devs {
		kk := kindKey{run: d.run, mwh: d.pack.CapacityMWh}
		k, ok := kindOf[kk]
		if !ok {
			k = len(t.kinds)
			kindOf[kk] = k
			t.kinds = append(t.kinds, kind{run: d.run, pack: d.pack, first: i})
		}
		t.slots[i] = k
	}
	return t
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

// aggregatePerDevice folds the run-class outcomes into the report,
// patching each device's run-class result with its own battery pack.
// All loops run in device-index order, so every float accumulation is
// order-deterministic.
func aggregatePerDevice(s Spec, devs []device, t *classTable, runs []runOutcome) (*Report, error) {
	n := len(devs)
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
	for _, out := range runs {
		if out.executed {
			memo.SimulatedRuns++
		} else {
			memo.LoadedRuns++
		}
	}

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

	for i := range devs {
		d := &devs[i]
		rc := &t.runs[d.run]
		out := runs[d.run]
		res := out.sum
		hours := res.Duration.Seconds() / 3600
		life, err := d.pack.StandbyHours(res.AvgPowerMW)
		if err != nil {
			return nil, fmt.Errorf("fleet: device %d: %w", i, err)
		}
		lifeH[i] = life
		powerMW[i] = res.AvgPowerMW
		residencyPct[i] = res.IdleResidency * 100

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
			rateHist.ObserveN(rate, 1)
			if rate > maxWakeRate {
				maxWakeRate = rate
			}
		}
		for _, st := range sortedKeys(res.ShallowIdles) {
			shallow[st] += res.ShallowIdles[st]
		}

		var devSim uint64
		if rc.rep == i {
			if out.executed {
				devSim = uint64(res.Cycles) - out.replayed
				memo.ReplayedCycles += out.replayed
			}
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

// perDeviceDeltas is Progress's per-run-class shard resolution, built
// by walking every device.
func perDeviceDeltas(devs []device, runs []runClass) [][]shardDelta {
	byRun := make([][]shardDelta, len(runs))
	for _, d := range devs {
		cycles := uint64(runs[d.run].cycles)
		dl := byRun[d.run]
		if n := len(dl); n > 0 && dl[n-1].shard == d.shard {
			dl[n-1].devices++
			dl[n-1].cycles += cycles
		} else {
			dl = append(dl, shardDelta{shard: d.shard, devices: 1, cycles: cycles})
		}
		byRun[d.run] = dl
	}
	return byRun
}

// randomSpec draws a fleet: spread lists with repeated values (so slots
// can share a kind), sometimes more slots than devices, fault sets that
// reuse a plan, and any shard count.
func randomSpec(rng *rand.Rand) Spec {
	s := Spec{
		Name:    "prop",
		Devices: 1 + rng.Intn(160),
		Horizon: sim.Duration(1+rng.Intn(5)) * sim.Minute,
	}
	for range rng.Intn(4) {
		s.Spread.DriftPPB = append(s.Spread.DriftPPB, []int64{0, 40, -25}[rng.Intn(3)])
	}
	for range rng.Intn(6) {
		s.Spread.BatteryMWh = append(s.Spread.BatteryMWh, []float64{36000, 30000, 28000}[rng.Intn(3)])
	}
	for range rng.Intn(5) {
		s.Spread.JitterSteps = append(s.Spread.JitterSteps, sim.Duration(rng.Intn(3))*250*sim.Millisecond)
	}
	for _, d := range rng.Perm(s.Devices)[:rng.Intn(min(s.Devices, 6)+1)] {
		s.Spread.Faults = append(s.Spread.Faults, DeviceFaults{Device: d, Plan: []string{"wake@1.3", "wake@2", ""}[rng.Intn(3)]})
	}
	s.Shards = 1 + rng.Intn(s.Devices)
	return s.withDefaults()
}

// syntheticOutcomes gives every run class a made-up result: values
// drawn from small sets, so kinds tie, wake maps of varying key sets,
// one run in four loaded rather than executed, and replay counts up to
// an executed run's cycles.
func syntheticOutcomes(rng *rand.Rand, runs []runClass) []runOutcome {
	out := make([]runOutcome, len(runs))
	for r, rc := range runs {
		res := runSummary{
			Duration:      sim.Duration(rng.Intn(3)) * sim.Hour,
			Cycles:        rc.cycles,
			AvgPowerMW:    []float64{0, 55.5, 58.25, 61}[rng.Intn(4)],
			IdleResidency: []float64{0.8, 0.992, 0.995, 0.9995, 1}[rng.Intn(5)],
			WakeCounts:    map[string]uint64{"timer": uint64(rng.Intn(400))},
			ShallowIdles:  map[string]uint64{},
		}
		if rng.Intn(40) == 0 {
			res.AvgPowerMW = -1 // StandbyHours fails: the error names the kind's first device
		}
		if rng.Intn(2) == 0 {
			res.WakeCounts["ec"] = uint64(rng.Intn(7))
		}
		if rng.Intn(3) == 0 {
			res.ShallowIdles["C8"] = uint64(rng.Intn(9))
		}
		out[r] = runOutcome{sum: res}
		if rng.Intn(4) != 0 {
			out[r].executed, out[r].replayed = true, uint64(rng.Intn(rc.cycles+1))
		}
	}
	return out
}

// TestFleetKindAggregateMatchesPerDevice is the property behind the
// kind-based fleet: over random spreads, fault sets, fleet sizes and
// shard counts, expand classifies every device as the per-device
// oracle does, and the report (aggregates, memo and shards, as JSON)
// and Progress's shard deltas equal the per-device fold's, from
// expand's table and from the one-slot-per-device table alike.
func TestFleetKindAggregateMatchesPerDevice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for c := range 400 {
		s := randomSpec(rng)
		if err := s.Validate(); err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		devs, runs, memos := formattedDevices(s)
		tab := expand(s)
		if !reflect.DeepEqual(tab.runs, runs) || !reflect.DeepEqual(tab.memos, memos) {
			t.Fatalf("case %d (%+v): class tables differ", c, s)
		}
		for i, d := range devs {
			if k := tab.kinds[tab.kindOf(i)]; k.run != d.run || k.pack != d.pack {
				t.Fatalf("case %d (%+v): device %d is kind %+v, want run %d pack %+v", c, s, i, k, d.run, d.pack)
			}
		}
		outs := syntheticOutcomes(rng, runs)
		want, wantErr := aggregatePerDevice(s, devs, &tab, outs)
		for name, table := range map[string]classTable{"expand": tab, "per-device slots": formattedClasses(s)} {
			got, err := aggregate(s, &table, outs)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("case %d %s: error %v, want %v", c, name, err, wantErr)
			}
			if err != nil {
				continue
			}
			for section, pair := range map[string][2]any{
				"aggregates": {got.Aggregates, want.Aggregates},
				"memo":       {got.Memo, want.Memo},
				"shards":     {got.Shards, want.Shards},
			} {
				g, _ := json.Marshal(pair[0])
				w, _ := json.Marshal(pair[1])
				if string(g) != string(w) {
					t.Fatalf("case %d %s (%+v): %s differ:\n got %s\nwant %s", c, name, s, section, g, w)
				}
			}
			prog := NewProgress()
			prog.start(&table)
			if got, want := prog.shape.Load().byRun, perDeviceDeltas(devs, runs); !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d %s (%+v): progress deltas\n got %+v\nwant %+v", c, name, s, got, want)
			}
		}
	}
}
