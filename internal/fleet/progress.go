package fleet

import (
	"sync/atomic"
)

// Progress is a cheap, concurrently readable view of one running fleet
// job, built for the serving half of the engine: a job queue worker
// passes a Progress into RunWithProgress and the HTTP result stream
// polls Stats while the simulation runs. Every counter is an atomic —
// reading progress never takes a lock the simulation could be holding —
// and every counter is monotone, so consecutive Stats snapshots never
// move backwards (the contract the load harness asserts).
//
// Granularity is the device-run boundary, which is where the fleet
// engine's collapse layers make progress observable at all: a device's
// cycles "resolve" the moment its run-class representative finishes,
// because every other member of the class is served a copy of that
// result (DESIGN.md §15). Every run class's completion resolves its
// devices and cycles, per shard; a chain head (the first run class of a
// memo class, which warms the plane for the rest) also advances the warm
// counters.
type Progress struct {
	shape atomic.Pointer[progressShape]
}

// NewProgress returns an idle Progress; Stats reports Started=false
// until a run adopts it. One Progress observes one run.
func NewProgress() *Progress { return &Progress{} }

// progressShape is the immutable layout (totals, per-run-class shard
// deltas) plus the mutable atomic counters, installed once at run start.
type progressShape struct {
	devices     int
	cyclesTotal uint64
	warmTotal   int
	runTotal    int

	warmDone    atomic.Uint64
	runDone     atomic.Uint64
	devicesDone atomic.Uint64
	cyclesDone  atomic.Uint64

	shards []progressShard
	// byRun holds, per run class, the per-shard resolution that class's
	// completion unlocks. Read-only after build.
	byRun [][]shardDelta
}

type progressShard struct {
	devices     int
	cycles      uint64
	devicesDone atomic.Uint64
	cyclesDone  atomic.Uint64
}

type shardDelta struct {
	shard   int
	devices int
	cycles  uint64
}

// start installs the run's shape. Devices are in index order (the
// expand contract), which makes each class's shard sequence
// nondecreasing, so deltas merge against the last element only.
func (p *Progress) start(t *classTable) {
	if p == nil {
		return
	}
	sh := &progressShape{
		warmTotal: len(t.memos),
		runTotal:  len(t.runs),
		devices:   len(t.devices),
		byRun:     make([][]shardDelta, len(t.runs)),
	}
	sh.shards = make([]progressShard, t.devices[len(t.devices)-1].shard+1)
	for i := range t.devices {
		d := &t.devices[i]
		cycles := uint64(t.runs[d.run].cycles)
		sh.cyclesTotal += cycles
		sh.shards[d.shard].devices++
		sh.shards[d.shard].cycles += cycles
		dl := sh.byRun[d.run]
		if n := len(dl); n > 0 && dl[n-1].shard == d.shard {
			dl[n-1].devices++
			dl[n-1].cycles += cycles
		} else {
			dl = append(dl, shardDelta{shard: d.shard, devices: 1, cycles: cycles})
		}
		sh.byRun[d.run] = dl
	}
	p.shape.Store(sh)
}

// warmRunDone records one completed chain head (plane-warming run).
func (p *Progress) warmRunDone() {
	if p == nil {
		return
	}
	if sh := p.shape.Load(); sh != nil {
		sh.warmDone.Add(1)
	}
}

// runClassDone resolves a completed run class: every member device's
// cycles are now accounted for, attributed to its shard.
func (p *Progress) runClassDone(run int) {
	if p == nil {
		return
	}
	sh := p.shape.Load()
	if sh == nil {
		return
	}
	sh.runDone.Add(1)
	for _, dl := range sh.byRun[run] {
		sh.shards[dl.shard].devicesDone.Add(uint64(dl.devices))
		sh.shards[dl.shard].cyclesDone.Add(dl.cycles)
		sh.devicesDone.Add(uint64(dl.devices))
		sh.cyclesDone.Add(dl.cycles)
	}
}

// ShardProgress is one shard's slice of a ProgressStats snapshot.
type ShardProgress struct {
	Shard       int    `json:"shard"`
	Devices     int    `json:"devices"`
	DevicesDone int    `json:"devices_done"`
	Cycles      uint64 `json:"cycles"`
	CyclesDone  uint64 `json:"cycles_done"`
}

// ProgressStats is a point-in-time snapshot. Each counter is monotone
// across snapshots of the same run; the snapshot as a whole is not
// atomic (counters are read independently), which streaming tolerates.
type ProgressStats struct {
	Started bool `json:"started"`

	Devices     int    `json:"devices"`
	DevicesDone int    `json:"devices_done"`
	CyclesTotal uint64 `json:"cycles_total"`
	CyclesDone  uint64 `json:"cycles_done"`

	// WarmRuns counts memo classes and WarmRunsDone the finished chain
	// heads, each the first run class of its memo class, which warms the
	// plane for the rest of its chain. Runs counts run classes, chain
	// heads included.
	WarmRuns     int `json:"warm_runs"`
	WarmRunsDone int `json:"warm_runs_done"`
	Runs         int `json:"runs"`
	RunsDone     int `json:"runs_done"`

	Shards []ShardProgress `json:"shards"`
}

// Stats snapshots the counters. Safe on a nil Progress and before the
// run starts (zero value, Started=false).
func (p *Progress) Stats() ProgressStats {
	if p == nil {
		return ProgressStats{}
	}
	sh := p.shape.Load()
	if sh == nil {
		return ProgressStats{}
	}
	st := ProgressStats{
		Started:      true,
		Devices:      sh.devices,
		DevicesDone:  int(sh.devicesDone.Load()),
		CyclesTotal:  sh.cyclesTotal,
		CyclesDone:   sh.cyclesDone.Load(),
		WarmRuns:     sh.warmTotal,
		WarmRunsDone: int(sh.warmDone.Load()),
		Runs:         sh.runTotal,
		RunsDone:     int(sh.runDone.Load()),
		Shards:       make([]ShardProgress, len(sh.shards)),
	}
	for i := range sh.shards {
		s := &sh.shards[i]
		st.Shards[i] = ShardProgress{
			Shard:       i,
			Devices:     s.devices,
			DevicesDone: int(s.devicesDone.Load()),
			Cycles:      s.cycles,
			CyclesDone:  s.cyclesDone.Load(),
		}
	}
	return st
}
