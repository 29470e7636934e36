package sim

import "fmt"

// Event is a handle to a scheduled callback. Events are one-shot: once
// fired or cancelled the handle goes stale and every method degrades to an
// inert answer (Pending reports false, Cancel is a no-op). The zero value
// is a valid stale handle. Obtain live handles from Scheduler.At or
// Scheduler.After.
//
// Internally the scheduler recycles event storage through a free list; a
// generation counter in the handle detects reuse, so holding a handle past
// its firing is always safe and never observes the recycled slot.
type Event struct {
	s    *Scheduler
	slot int32
	gen  uint32
}

// Valid reports whether the handle was ever issued by a scheduler (the
// zero value is not). A valid handle may still be stale; see Pending.
func (e Event) Valid() bool { return e.s != nil }

// live returns the backing slot while the event is still queued.
func (e Event) live() (*eventSlot, bool) {
	if e.s == nil || int(e.slot) >= len(e.s.slots) {
		return nil, false
	}
	sl := &e.s.slots[e.slot]
	if sl.gen != e.gen {
		return nil, false
	}
	return sl, true
}

// Pending reports whether the event is still queued.
func (e Event) Pending() bool { _, ok := e.live(); return ok }

// eventSlot is the recycled backing store of one scheduled event. Slots
// live in a slab indexed by Event.slot; gen increments on every free so
// stale handles miscompare and read as inert.
type eventSlot struct {
	fn       func()
	name     string
	gen      uint32
	heapIdx  int32 // position in Scheduler.heap, -1 when not queued
	nextFree int32 // free-list link, meaningful only while free
}

// heapEntry is one element of the inlined 4-ary min-heap. The ordering key
// (when, seq) is duplicated here so sifting compares without touching the
// slot slab, and the entry carries its slot index for dispatch.
type heapEntry struct {
	when Time
	seq  uint64
	slot int32
}

func entryLess(a, b heapEntry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// Scheduler is a deterministic discrete-event scheduler. It is not safe for
// concurrent use; the whole platform model is single-threaded by design so
// that every run is exactly reproducible. (Parallel experiments run one
// Scheduler per goroutine — see internal/experiments.RunPoints.)
type Scheduler struct {
	now      Time
	heap     []heapEntry
	slots    []eventSlot
	freeHead int32
	seq      uint64
}

// NewScheduler returns a scheduler positioned at the epoch.
func NewScheduler() *Scheduler { return &Scheduler{freeHead: -1} }

// Now returns the current simulated instant.
func (s *Scheduler) Now() Time { return s.now }

// Pending returns the number of queued events.
func (s *Scheduler) Pending() int { return len(s.heap) }

func (s *Scheduler) allocSlot() int32 {
	if s.freeHead >= 0 {
		i := s.freeHead
		s.freeHead = s.slots[i].nextFree
		return i
	}
	s.slots = append(s.slots, eventSlot{heapIdx: -1})
	return int32(len(s.slots) - 1)
}

func (s *Scheduler) freeSlot(i int32) {
	sl := &s.slots[i]
	sl.fn = nil
	sl.name = ""
	sl.gen++
	sl.heapIdx = -1
	sl.nextFree = s.freeHead
	s.freeHead = i
}

// At schedules fn to run at instant t. Scheduling in the past panics: the
// model has a bug if it ever asks for that. Events at the current instant
// are legal and run after the currently-executing event returns.
func (s *Scheduler) At(t Time, name string, fn func()) Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v, before now %v", name, t, s.now))
	}
	i := s.allocSlot()
	sl := &s.slots[i]
	sl.fn = fn
	sl.name = name
	s.heapPush(heapEntry{when: t, seq: s.seq, slot: i})
	s.seq++
	return Event{s: s, slot: i, gen: sl.gen}
}

// After schedules fn to run d after the current instant.
func (s *Scheduler) After(d Duration, name string, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: scheduling %q with negative delay %v", name, d))
	}
	return s.At(s.now.Add(d), name, fn)
}

// Cancel removes a pending event and recycles its slot immediately — there
// is no tombstone state, so the queue never holds cancelled entries and
// every drain path (Step, Run, RunUntil) dispatches from the same code.
// Cancelling a fired, already-cancelled, or zero-value event is a no-op,
// so callers can cancel unconditionally.
func (s *Scheduler) Cancel(e Event) {
	if e.s != s {
		return
	}
	sl, ok := e.live()
	if !ok {
		return
	}
	s.heapRemove(int(sl.heapIdx))
	s.freeSlot(e.slot)
}

// Clear cancels every pending event in one sweep, leaving the clock where
// it is, and returns how many events were dropped. Each slot is recycled
// exactly as an individual Cancel would, so any handle still held goes
// stale (its generation miscompares) rather than observing a reused slot.
// The platform drains the queue this way after a latched flow error: a
// failed run must stop dead instead of keeping half-torn-down hardware
// models dispatching into each other.
func (s *Scheduler) Clear() int {
	n := len(s.heap)
	for _, e := range s.heap {
		s.freeSlot(e.slot)
	}
	s.heap = s.heap[:0]
	return n
}

// dispatch pops the earliest entry, frees its slot, and runs the callback.
// The slot is recycled before fn runs; the generation bump keeps any handle
// the callback still holds safely stale.
func (s *Scheduler) dispatch() {
	ent := s.heapRemove(0)
	fn := s.slots[ent.slot].fn
	s.now = ent.when
	s.freeSlot(ent.slot)
	fn()
}

// Run dispatches events until the queue drains.
func (s *Scheduler) Run() {
	for len(s.heap) > 0 {
		s.dispatch()
	}
}

// RunUntil dispatches events with timestamps <= deadline, then advances the
// clock to the deadline. Events scheduled beyond the deadline stay queued.
func (s *Scheduler) RunUntil(deadline Time) {
	for len(s.heap) > 0 && s.heap[0].when <= deadline {
		s.dispatch()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor advances the simulation by d.
func (s *Scheduler) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }

// AdvanceTo moves the clock to t without dispatching anything. It is the
// bulk time advance used by the platform's steady-state fast-forward,
// which is only sound when no event would have fired in the skipped
// window — so an event queued at or before t panics (the model has a bug
// if a replayed window still has work in it), as does moving backwards.
func (s *Scheduler) AdvanceTo(t Time) {
	if t < s.now {
		panic(fmt.Sprintf("sim: AdvanceTo %v, before now %v", t, s.now))
	}
	if len(s.heap) > 0 && s.heap[0].when <= t {
		panic(fmt.Sprintf("sim: AdvanceTo %v over pending event %q at %v",
			t, s.slots[s.heap[0].slot].name, s.heap[0].when))
	}
	s.now = t
}

// setEntry stores e at heap position i and keeps the slot back-reference
// coherent for O(log n) Cancel.
func (s *Scheduler) setEntry(i int, e heapEntry) {
	s.heap[i] = e
	s.slots[e.slot].heapIdx = int32(i)
}

func (s *Scheduler) heapPush(e heapEntry) {
	s.heap = append(s.heap, e)
	s.siftUp(len(s.heap)-1, e)
}

func (s *Scheduler) siftUp(i int, e heapEntry) {
	for i > 0 {
		p := (i - 1) / 4
		pe := s.heap[p]
		if !entryLess(e, pe) {
			break
		}
		s.setEntry(i, pe)
		i = p
	}
	s.setEntry(i, e)
}

func (s *Scheduler) siftDown(i int, e heapEntry) {
	n := len(s.heap)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		m, me := first, s.heap[first]
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if entryLess(s.heap[c], me) {
				m, me = c, s.heap[c]
			}
		}
		if !entryLess(me, e) {
			break
		}
		s.setEntry(i, me)
		i = m
	}
	s.setEntry(i, e)
}

// heapRemove deletes and returns the entry at position i.
func (s *Scheduler) heapRemove(i int) heapEntry {
	removed := s.heap[i]
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap[n] = heapEntry{}
	s.heap = s.heap[:n]
	if i < n {
		if i > 0 && entryLess(last, s.heap[(i-1)/4]) {
			s.siftUp(i, last)
		} else {
			s.siftDown(i, last)
		}
	}
	return removed
}

// Every schedules fn at t0, t0+period, t0+2*period, ... until the returned
// Ticker is stopped. fn receives the tick instant.
func (s *Scheduler) Every(t0 Time, period Duration, name string, fn func(Time)) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: ticker %q with non-positive period %v", name, period))
	}
	tk := &Ticker{sched: s, period: period, name: name, fn: fn}
	tk.arm(t0)
	return tk
}

// Ticker is a repeating event created by Scheduler.Every.
type Ticker struct {
	sched   *Scheduler
	period  Duration
	name    string
	fn      func(Time)
	ev      Event
	stopped bool
}

func (tk *Ticker) arm(t Time) {
	tk.ev = tk.sched.At(t, tk.name, func() {
		if tk.stopped {
			return
		}
		at := tk.sched.Now()
		tk.arm(at.Add(tk.period))
		tk.fn(at)
	})
}

// Stop cancels future ticks. Stop is idempotent.
func (tk *Ticker) Stop() {
	if tk.stopped {
		return
	}
	tk.stopped = true
	tk.sched.Cancel(tk.ev)
}
