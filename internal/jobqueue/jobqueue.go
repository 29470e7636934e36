// Package jobqueue is the serving core of the fleet engine: a bounded
// FIFO of fleet jobs executed by a fixed worker pool against one shared
// memo plane, with per-job cancellation, live progress, and a graceful
// drain for process shutdown.
//
// Design constraints, in the order they shaped the package:
//
//   - Deterministic identities. A job's ID is a pure function of
//     (queue seed, acceptance sequence number, canonical spec JSON) —
//     no walltime, no process randomness — so a replayed submission
//     script produces the same IDs against a fresh queue, and the load
//     harness can diff two runs by ID. The sequence number advances
//     only on ACCEPTED submissions: a rejected burst (queue full, spec
//     too large) does not perturb the IDs of what follows.
//
//   - Backpressure over buffering. Capacity bounds the pending FIFO;
//     when it is full Submit fails fast with ErrQueueFull rather than
//     blocking the HTTP handler or growing without bound. Callers
//     (odrips-loadgen) retry; the queue never sheds an accepted job.
//
//   - Determinism of results. Workers only move jobs between states
//     and call fleet.Exec; the fleet engine's per-memo-class chains
//     make each job's Aggregates a pure function of its spec, so the
//     worker count here changes throughput only. The
//     shared plane can change memo STATISTICS across interleavings —
//     never results (see fleet.Exec's contract).
//
//   - No package state. Everything hangs off a Queue value; the
//     package passes the globalstate vet rule with zero allows.
package jobqueue

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"

	"odrips/internal/experiments"
	"odrips/internal/fleet"
	"odrips/internal/platform"
)

// Submission and lookup failures, in the shapes the HTTP layer maps to
// status codes. Spec decode/validation failures surface as
// *fleet.SpecError instead.
var (
	// ErrQueueFull: the pending FIFO is at capacity. Retryable.
	ErrQueueFull = errors.New("jobqueue: queue full")
	// ErrDraining: the queue is shutting down and accepts no new work.
	ErrDraining = errors.New("jobqueue: draining")
	// ErrTooLarge: the spec's fleet exceeds Options.MaxDevices.
	ErrTooLarge = errors.New("jobqueue: fleet too large")
	// ErrNotFound: no such job (never accepted, or evicted by retention).
	ErrNotFound = errors.New("jobqueue: no such job")
	// ErrNotFinished: results requested before the job finished.
	ErrNotFinished = errors.New("jobqueue: job not finished")
)

// State is a job's lifecycle position. Transitions are monotone:
// pending → running → {done, failed, canceled}, or pending → canceled.
type State string

const (
	StatePending  State = "pending"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Finished reports whether s is terminal.
func (s State) Finished() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Options configures a Queue. The zero value is usable; zero fields
// take the defaults noted on each.
type Options struct {
	// Capacity bounds the pending FIFO (default 256).
	Capacity int
	// Workers sizes the execution pool (default 4).
	Workers int
	// Seed is folded into every job ID; two queues with the same seed
	// fed the same accepted submissions mint the same IDs (default 1).
	Seed int64
	// MaxDevices rejects specs whose fleet exceeds it (default 1e6).
	MaxDevices int
	// Retain bounds how many FINISHED jobs stay queryable; the oldest
	// finished jobs are evicted first (default 4096). Pending and
	// running jobs are never evicted.
	Retain int
	// Plane is the memo plane every job warms and draws from; nil builds
	// one storeless plane the queue's jobs share.
	Plane *platform.MemoPlane
	// FF is the fast-forward mode jobs run in (default FFOn).
	FF platform.FFMode
	// Hold parks the worker pool until Release is called. Tests use it
	// to build deterministic queue-full and cancel-while-pending
	// scenarios; servers leave it false.
	Hold bool
}

func (o Options) withDefaults() Options {
	if o.Capacity == 0 {
		o.Capacity = 256
	}
	if o.Workers == 0 {
		o.Workers = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxDevices == 0 {
		o.MaxDevices = 1_000_000
	}
	if o.Retain == 0 {
		o.Retain = 4096
	}
	return o
}

// Job is one accepted submission. All accessors are safe for
// concurrent use with the executing worker.
type Job struct {
	id       string
	seq      uint64
	spec     fleet.Spec // normalized
	specJSON []byte     // canonical encoding of spec
	prog     *fleet.Progress

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	state  State
	report *fleet.Report
	err    error
	done   chan struct{} // closed on reaching a terminal state
}

// ID is the deterministic job identity.
func (j *Job) ID() string { return j.id }

// Seq is the acceptance sequence number (1-based).
func (j *Job) Seq() uint64 { return j.seq }

// Spec is the normalized (defaulted, validated) spec the job runs.
func (j *Job) Spec() fleet.Spec { return j.spec }

// SpecJSON is the canonical encoding the job's ID commits to.
func (j *Job) SpecJSON() []byte { return append([]byte(nil), j.specJSON...) }

// State is the job's current lifecycle position.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Progress snapshots the job's live fleet progress counters.
func (j *Job) Progress() fleet.ProgressStats { return j.prog.Stats() }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the finished job's report. ErrNotFinished before the
// terminal state; the run's error for failed/canceled jobs.
func (j *Job) Result() (*fleet.Report, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Finished() {
		return nil, ErrNotFinished
	}
	if j.err != nil {
		return nil, j.err
	}
	return j.report, nil
}

// finish moves the job to a terminal state exactly once.
func (j *Job) finish(state State, rep *fleet.Report, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Finished() {
		return false
	}
	j.state = state
	j.report = rep
	j.err = err
	j.cancel() // release the context's resources
	close(j.done)
	return true
}

// claim moves a dequeued job pending → running; false if the job was
// canceled while pending (the worker then skips it).
func (j *Job) claim() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StatePending {
		return false
	}
	j.state = StateRunning
	return true
}

// cancelPending moves a pending job straight to canceled. It races the
// worker's claim under j.mu, so exactly one of them wins: if claim got
// there first the job is running and only its worker may finish it
// (the canceled context ends the run at the next device boundary).
func (j *Job) cancelPending(err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StatePending {
		return false
	}
	j.state = StateCanceled
	j.err = err
	j.cancel()
	close(j.done)
	return true
}

// Stats is the queue's counter snapshot (served by /v1/stats).
type Stats struct {
	Capacity int  `json:"capacity"`
	Workers  int  `json:"workers"`
	Draining bool `json:"draining"`

	Accepted     uint64 `json:"accepted"`      // submissions admitted (== max seq)
	RejectedFull uint64 `json:"rejected_full"` // ErrQueueFull rejections
	Pending      int    `json:"pending"`
	Running      int    `json:"running"`
	Done         uint64 `json:"done"`
	Failed       uint64 `json:"failed"`
	Canceled     uint64 `json:"canceled"`
	Retained     int    `json:"retained"` // jobs currently queryable
	Evicted      uint64 `json:"evicted"`  // finished jobs dropped by retention
}

// Queue is the bounded job queue plus its worker pool. Create with New;
// the zero value is not usable.
type Queue struct {
	opts Options
	rt   *experiments.Runtime // over opts.Plane; every job runs on it

	mu       sync.Mutex
	seq      uint64
	jobs     map[string]*Job
	finished []string // IDs in finish order, for retention eviction
	draining bool
	counts   struct {
		rejectedFull, done, failed, canceled, evicted uint64
		running                                       int
	}

	fifo    chan *Job
	workers sync.WaitGroup
	release chan struct{}
	relOnce sync.Once
}

// New builds the queue and starts its worker pool.
func New(opts Options) *Queue {
	opts = opts.withDefaults()
	q := &Queue{
		opts: opts,
		rt:   experiments.NewRuntime(opts.Plane, opts.FF, 0),
		jobs: make(map[string]*Job),
		fifo: make(chan *Job, opts.Capacity),
	}
	if opts.Hold {
		q.release = make(chan struct{})
	}
	for i := 0; i < opts.Workers; i++ {
		q.workers.Add(1)
		go func() {
			defer q.workers.Done()
			if q.release != nil {
				<-q.release
			}
			for j := range q.fifo {
				q.run(j)
			}
		}()
	}
	return q
}

// Runtime returns the runtime every job runs on.
func (q *Queue) Runtime() *experiments.Runtime { return q.rt }

// Release unparks a Hold-started worker pool. Idempotent; a no-op for
// queues built without Hold.
func (q *Queue) Release() {
	if q.release != nil {
		q.relOnce.Do(func() { close(q.release) })
	}
}

// jobID derives the deterministic identity: a sequence prefix for
// human ordering plus a hash committing to (seed, seq, canonical spec).
func jobID(seed int64, seq uint64, specJSON []byte) string {
	h := sha256.New()
	var hdr [16]byte
	binary.BigEndian.PutUint64(hdr[0:8], uint64(seed))
	binary.BigEndian.PutUint64(hdr[8:16], seq)
	h.Write(hdr[:])
	h.Write(specJSON)
	return fmt.Sprintf("job-%06d-%s", seq, hex.EncodeToString(h.Sum(nil)[:12]))
}

// Submit normalizes, bounds-checks, and enqueues a spec. On success the
// returned job is pending and owns a fresh cancelable context. Failure
// modes: *fleet.SpecError (invalid spec), ErrTooLarge, ErrDraining,
// ErrQueueFull. Only ErrQueueFull is retryable as-is.
func (q *Queue) Submit(spec fleet.Spec) (*Job, error) {
	norm, err := spec.Normalized()
	if err != nil {
		var se *fleet.SpecError
		if !errors.As(err, &se) {
			err = &fleet.SpecError{Reason: "validate", Err: err}
		}
		return nil, err
	}
	if norm.Devices > q.opts.MaxDevices {
		return nil, fmt.Errorf("%w: %d devices (limit %d)", ErrTooLarge, norm.Devices, q.opts.MaxDevices)
	}
	specJSON, err := fleet.EncodeSpecJSON(norm)
	if err != nil {
		return nil, err
	}

	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		return nil, ErrDraining
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		seq:      q.seq + 1,
		spec:     norm,
		specJSON: specJSON,
		prog:     fleet.NewProgress(),
		ctx:      ctx,
		cancel:   cancel,
		state:    StatePending,
		done:     make(chan struct{}),
	}
	j.id = jobID(q.opts.Seed, j.seq, specJSON)
	select {
	case q.fifo <- j:
	default:
		cancel()
		q.counts.rejectedFull++
		return nil, ErrQueueFull
	}
	q.seq = j.seq // advance only on acceptance
	q.jobs[j.id] = j
	return j, nil
}

// run executes one dequeued job on a worker.
func (q *Queue) run(j *Job) {
	if !j.claim() {
		// Canceled while pending; finish already ran.
		return
	}
	q.mu.Lock()
	q.counts.running++
	q.mu.Unlock()

	rep, err := fleet.Exec(j.ctx, q.rt, j.spec, j.prog)
	state := StateDone
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		state, rep = StateCanceled, nil
	default:
		state, rep = StateFailed, nil
	}
	// Finish under q.mu, so a Stats() that follows <-j.Done() already
	// counts the job as finished.
	q.mu.Lock()
	j.finish(state, rep, err)
	q.counts.running--
	q.noteFinishedLocked(j)
	q.mu.Unlock()
}

// noteFinishedLocked records a terminal transition and applies the
// finished-job retention bound. Callers hold q.mu.
func (q *Queue) noteFinishedLocked(j *Job) {
	switch j.State() {
	case StateDone:
		q.counts.done++
	case StateFailed:
		q.counts.failed++
	case StateCanceled:
		q.counts.canceled++
	}
	q.finished = append(q.finished, j.id)
	for len(q.finished) > q.opts.Retain {
		evict := q.finished[0]
		q.finished = q.finished[1:]
		delete(q.jobs, evict)
		q.counts.evicted++
	}
}

// Get looks up a job by ID.
func (q *Queue) Get(id string) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// Cancel cancels a job. A pending job transitions to canceled
// immediately (its worker slot is skipped); a running job's context is
// canceled and the fleet engine stops at the next device-run boundary,
// after which its worker records the canceled state. Canceling a
// finished job is a no-op. Returns the job's state after the cancel
// took effect.
func (q *Queue) Cancel(id string) (State, error) {
	j, err := q.Get(id)
	if err != nil {
		return "", err
	}
	q.mu.Lock() // as in run: counted before Done() closes
	if j.cancelPending(fmt.Errorf("jobqueue: job %s: %w", id, context.Canceled)) {
		q.noteFinishedLocked(j)
		q.mu.Unlock()
		return StateCanceled, nil
	}
	q.mu.Unlock()
	j.cancel() // running → engine stops soon; finished → no-op
	return j.State(), nil
}

// Drain stops intake and waits for in-flight and pending jobs to
// finish. If ctx expires first, every unfinished job is canceled (in
// sorted-ID order) and Drain waits for the workers to observe the
// cancellations before returning ctx's error. Safe to call more than
// once; later calls just wait.
func (q *Queue) Drain(ctx context.Context) error {
	q.mu.Lock()
	if !q.draining {
		q.draining = true
		close(q.fifo)
	}
	q.mu.Unlock()
	q.Release() // a parked pool must be able to drain its FIFO

	idle := make(chan struct{})
	var join sync.WaitGroup
	join.Add(1)
	go func() {
		defer join.Done()
		q.workers.Wait()
		close(idle)
	}()
	var drainErr error
	select {
	case <-idle:
	case <-ctx.Done():
		drainErr = ctx.Err()
		q.cancelAll()
		<-idle
	}
	join.Wait()
	return drainErr
}

// cancelAll cancels every unfinished job, in sorted-ID order so the
// cancellation sequence is deterministic for a given job set.
func (q *Queue) cancelAll() {
	q.mu.Lock()
	ids := make([]string, 0, len(q.jobs))
	for id := range q.jobs {
		ids = append(ids, id)
	}
	q.mu.Unlock()
	sort.Strings(ids)
	for _, id := range ids {
		j, err := q.Get(id)
		if err != nil {
			continue // evicted between snapshot and cancel
		}
		if !j.State().Finished() {
			// Ignore the returned state; Cancel on a finished job is a
			// no-op and ErrNotFound cannot happen while we hold the ID.
			_, _ = q.Cancel(id)
		}
	}
}

// Stats snapshots the queue counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return Stats{
		Capacity:     q.opts.Capacity,
		Workers:      q.opts.Workers,
		Draining:     q.draining,
		Accepted:     q.seq,
		RejectedFull: q.counts.rejectedFull,
		Pending:      len(q.fifo),
		Running:      q.counts.running,
		Done:         q.counts.done,
		Failed:       q.counts.failed,
		Canceled:     q.counts.canceled,
		Retained:     len(q.jobs),
		Evicted:      q.counts.evicted,
	}
}
