package jobqueue

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"odrips/internal/fleet"
	"odrips/internal/platform"
	"odrips/internal/sim"
)

// smallSpec is a fast, heterogeneous job: several run classes so
// progress and cancellation have boundaries to land on.
func smallSpec(name string) fleet.Spec {
	return fleet.Spec{
		Name:    name,
		Devices: 12,
		Horizon: 2 * sim.Minute,
		Shards:  3,
		Spread: fleet.Spread{
			DriftPPB:    []int64{0, 40},
			BatteryMWh:  []float64{30000, 36000},
			JitterSteps: []sim.Duration{0, 250 * sim.Millisecond},
		},
	}
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	<-j.Done()
}

func TestSubmitRunResult(t *testing.T) {
	q := New(Options{Workers: 2})
	defer func() {
		if err := q.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()

	j, err := q.Submit(smallSpec("basic"))
	if err != nil {
		t.Fatal(err)
	}
	if j.Seq() != 1 {
		t.Fatalf("seq %d", j.Seq())
	}
	waitDone(t, j)
	if st := j.State(); st != StateDone {
		t.Fatalf("state %s", st)
	}
	rep, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Devices != 12 {
		t.Fatalf("report for %d devices", rep.Devices)
	}
	ps := j.Progress()
	if !ps.Started || ps.DevicesDone != 12 || ps.CyclesDone != ps.CyclesTotal {
		t.Fatalf("progress incomplete at done: %+v", ps)
	}
	st := q.Stats()
	if st.Accepted != 1 || st.Done != 1 || st.Running != 0 || st.Pending != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestDeterministicAggregates: the same spec through the queue and
// through fleet.Run directly produces byte-identical Aggregates — the
// queue adds scheduling, never physics.
func TestDeterministicAggregates(t *testing.T) {
	direct, err := fleet.Run(smallSpec("det"), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct.Aggregates)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		q := New(Options{Workers: workers})
		j1, err := q.Submit(smallSpec("det"))
		if err != nil {
			t.Fatal(err)
		}
		j2, err := q.Submit(smallSpec("det"))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j1)
		waitDone(t, j2)
		for _, j := range []*Job{j1, j2} {
			rep, err := j.Result()
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(rep.Aggregates)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("workers=%d job %s aggregates diverge:\n got %s\nwant %s", workers, j.ID(), got, want)
			}
		}
		if err := q.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQueueJobsShareOnePlane: without Options.Plane the queue's jobs
// share one storeless plane, so a repeated job simulates no cycle.
func TestQueueJobsShareOnePlane(t *testing.T) {
	q := New(Options{Workers: 1})
	defer func() {
		if err := q.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	var reps [2]*fleet.Report
	for i := range reps {
		j, err := q.Submit(smallSpec("reuse"))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		if reps[i], err = j.Result(); err != nil {
			t.Fatal(err)
		}
	}
	if reps[0].Memo.SimulatedCycles == 0 {
		t.Fatal("the first job simulated nothing; the spec cannot show reuse")
	}
	if n := reps[1].Memo.SimulatedCycles; n != 0 {
		t.Errorf("the repeated job simulated %d cycles; want 0 from the queue's plane", n)
	}
}

// TestQueueFastForwardMode: Options.FF reaches every platform a job
// builds — off and verify never replay a cycle — while the aggregates
// stay those of a direct FFOn fleet.Run.
func TestQueueFastForwardMode(t *testing.T) {
	// A 10-minute horizon lets a single run reach steady state and
	// replay its own records.
	spec := smallSpec("ff")
	spec.Horizon = 10 * sim.Minute
	direct, err := fleet.Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Memo.ReplayedCycles == 0 {
		t.Fatal("the FFOn reference replayed nothing; the spec cannot tell the modes apart")
	}
	want, err := json.Marshal(direct.Aggregates)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []platform.FFMode{platform.FFOff, platform.FFVerify} {
		q := New(Options{Workers: 1, FF: mode})
		j, err := q.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		rep, err := j.Result()
		if err != nil {
			t.Fatalf("FF=%v: %v", mode, err)
		}
		if rep.Memo.ReplayedCycles != 0 {
			t.Errorf("FF=%v: job replayed %d cycles", mode, rep.Memo.ReplayedCycles)
		}
		got, err := json.Marshal(rep.Aggregates)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("FF=%v: aggregates diverge from FFOn:\n got %s\nwant %s", mode, got, want)
		}
		if err := q.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentSubmitters: many goroutines submit distinct spec
// classes at once; every job's result matches its own class's golden
// regardless of completion order, and IDs commit to the right spec.
func TestConcurrentSubmitters(t *testing.T) {
	classes := []fleet.Spec{smallSpec("a"), smallSpec("b"), smallSpec("c")}
	classes[1].Devices = 8
	classes[2].Spread.DriftPPB = []int64{0, 40, 80}
	golden := make([]string, len(classes))
	for i, s := range classes {
		rep, err := fleet.Run(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep.Aggregates)
		if err != nil {
			t.Fatal(err)
		}
		golden[i] = string(b)
	}

	q := New(Options{Workers: 4, Capacity: 64})
	const perClass = 4
	var wg sync.WaitGroup
	jobs := make([]*Job, len(classes)*perClass)
	errs := make([]error, len(jobs))
	for i := range jobs {
		wg.Add(1)
		i := i
		go func() {
			defer wg.Done()
			jobs[i], errs[i] = q.Submit(classes[i%len(classes)])
		}()
	}
	wg.Wait()
	ids := make(map[string]bool)
	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		if ids[j.ID()] {
			t.Fatalf("duplicate job ID %s", j.ID())
		}
		ids[j.ID()] = true
		waitDone(t, j)
		rep, err := j.Result()
		if err != nil {
			t.Fatalf("job %s: %v", j.ID(), err)
		}
		b, err := json.Marshal(rep.Aggregates)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != golden[i%len(classes)] {
			t.Fatalf("job %s (class %d) got another class's aggregates", j.ID(), i%len(classes))
		}
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Done != uint64(len(jobs)) {
		t.Fatalf("done %d of %d", st.Done, len(jobs))
	}
}

// TestDeterministicIDs: job IDs are a pure function of (seed, sequence,
// canonical spec) — two queues with one seed mint identical IDs for an
// identical submission sequence, and the hash matches a by-hand
// recomputation from the job's own canonical spec bytes.
func TestDeterministicIDs(t *testing.T) {
	mint := func() []string {
		q := New(Options{Workers: 1, Seed: 7, Hold: true, Capacity: 8})
		var ids []string
		for _, s := range []fleet.Spec{smallSpec("x"), smallSpec("y"), smallSpec("x")} {
			j, err := q.Submit(s)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, j.ID())
		}
		q.Release()
		if err := q.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		return ids
	}
	a, b := mint(), mint()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ID %d diverges across identical queues: %s vs %s", i, a[i], b[i])
		}
	}
	if a[0] == a[2] {
		t.Fatal("same spec at different sequence numbers must differ")
	}

	// Recompute ID 0 by hand from the seed, the sequence number and the
	// canonical encoding of the normalized spec.
	q := New(Options{Workers: 1, Seed: 7, Hold: true})
	j, err := q.Submit(smallSpec("x"))
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := fleet.EncodeSpecJSON(j.spec)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write([]byte{0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 1})
	h.Write(specJSON)
	want := fmt.Sprintf("job-%06d-%s", 1, hex.EncodeToString(h.Sum(nil)[:12]))
	if j.ID() != want {
		t.Fatalf("ID %s, recomputed %s", j.ID(), want)
	}
	q.Release()
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestQueueFullAndSeq: a full FIFO rejects with ErrQueueFull, the
// rejection does not consume a sequence number, and released workers
// then drain every accepted job.
func TestQueueFullAndSeq(t *testing.T) {
	q := New(Options{Workers: 1, Capacity: 2, Hold: true})
	j1, err := q.Submit(smallSpec("q1"))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := q.Submit(smallSpec("q2"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(smallSpec("q3")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: %v", err)
	}
	j4, err := q.Submit(smallSpec("q4")) // rejected q3 freed nothing; still full
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second overflow: %v (job %v)", err, j4)
	}
	if st := q.Stats(); st.Accepted != 2 || st.RejectedFull != 2 || st.Pending != 2 {
		t.Fatalf("stats %+v", st)
	}
	q.Release()
	waitDone(t, j1)
	waitDone(t, j2)
	// Sequence numbers skipped nothing: next acceptance is seq 3.
	j5, err := q.Submit(smallSpec("q5"))
	if err != nil {
		t.Fatal(err)
	}
	if j5.Seq() != 3 {
		t.Fatalf("seq %d after rejections (want 3)", j5.Seq())
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestCancelPending: canceling a queued-but-unclaimed job finishes it
// immediately; the worker later skips its FIFO slot.
func TestCancelPending(t *testing.T) {
	q := New(Options{Workers: 1, Capacity: 4, Hold: true})
	j, err := q.Submit(smallSpec("pend"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := q.Cancel(j.ID())
	if err != nil || st != StateCanceled {
		t.Fatalf("cancel: state %s, err %v", st, err)
	}
	waitDone(t, j)
	if _, err := j.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("result of canceled job: %v", err)
	}
	if ps := j.Progress(); ps.Started {
		t.Fatal("canceled-while-pending job reports simulation progress")
	}
	q.Release()
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Canceled != 1 || st.Done != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCancelRunning: canceling mid-run stops the engine at a device
// boundary; the job lands in canceled with partial progress.
func TestCancelRunning(t *testing.T) {
	// Many drift classes → 64 memo-class chains, far more than the
	// queue runtime's GOMAXPROCS workers → a wide cancel window.
	s := smallSpec("run")
	s.Devices = 64
	s.Spread.DriftPPB = make([]int64, 64)
	for i := range s.Spread.DriftPPB {
		s.Spread.DriftPPB[i] = int64(i * 10)
	}
	q := New(Options{Workers: 1})
	j, err := q.Submit(s)
	if err != nil {
		t.Fatal(err)
	}
	for j.Progress().WarmRunsDone == 0 {
		if j.State().Finished() {
			t.Fatal("job finished before the cancel window opened")
		}
	}
	if _, err := q.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := j.State(); st != StateCanceled {
		t.Fatalf("state %s", st)
	}
	if _, err := j.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("result: %v", err)
	}
	if ps := j.Progress(); ps.DevicesDone == ps.Devices && ps.CyclesDone == ps.CyclesTotal {
		t.Fatal("canceled run claims full completion")
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Canceled != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestDrain: draining refuses new work, finishes accepted work, and an
// expired drain context cancels what remains.
func TestDrain(t *testing.T) {
	q := New(Options{Workers: 2})
	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, err := q.Submit(smallSpec(fmt.Sprintf("d%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if st := j.State(); st != StateDone {
			t.Fatalf("job %s drained into %s", j.ID(), st)
		}
	}
	if _, err := q.Submit(smallSpec("late")); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: %v", err)
	}

	// Expired drain context: pending jobs held behind a parked pool are
	// canceled rather than waited for.
	q2 := New(Options{Workers: 1, Capacity: 4, Hold: true})
	j, err := q2.Submit(smallSpec("held"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := q2.Drain(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("drain with dead context: %v", err)
	}
	if st := j.State(); st != StateCanceled {
		t.Fatalf("held job drained into %s", st)
	}
}

// TestSubmitErrors: typed failures for bad and oversized specs.
func TestSubmitErrors(t *testing.T) {
	q := New(Options{Workers: 1, MaxDevices: 10})
	var se *fleet.SpecError
	if _, err := q.Submit(fleet.Spec{Devices: 0}); !errors.As(err, &se) {
		t.Fatalf("invalid spec: %v", err)
	}
	twoPlans := fleet.Spec{Devices: 4, Horizon: sim.Minute, Spread: fleet.Spread{Faults: []fleet.DeviceFaults{
		{Device: 1, Plan: "wake@1"}, {Device: 1, Plan: "wake@2"},
	}}}
	if _, err := q.Submit(twoPlans); !errors.As(err, &se) {
		t.Fatalf("device with two fault plans: %v", err)
	}
	if _, err := q.Submit(smallSpec("big")); !errors.Is(err, ErrTooLarge) {
		t.Fatal("12 devices passed a MaxDevices of 10")
	}
	if _, err := q.Get("job-000001-nope"); !errors.Is(err, ErrNotFound) {
		t.Fatal("lookup of unknown ID succeeded")
	}
	if _, err := q.Cancel("job-000001-nope"); !errors.Is(err, ErrNotFound) {
		t.Fatal("cancel of unknown ID succeeded")
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRetention: finished jobs beyond Retain are evicted oldest-first;
// unfinished jobs are never evicted.
func TestRetention(t *testing.T) {
	q := New(Options{Workers: 1, Retain: 2, Capacity: 8})
	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, err := q.Submit(smallSpec(fmt.Sprintf("r%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		waitDone(t, j) // serialize so finish order == submit order
	}
	st := q.Stats()
	if st.Retained != 2 || st.Evicted != 2 {
		t.Fatalf("stats %+v", st)
	}
	if _, err := q.Get(jobs[0].ID()); !errors.Is(err, ErrNotFound) {
		t.Fatal("oldest finished job still queryable past retention")
	}
	if _, err := q.Get(jobs[3].ID()); err != nil {
		t.Fatalf("newest finished job evicted: %v", err)
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
