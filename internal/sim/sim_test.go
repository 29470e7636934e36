package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(5 * Millisecond)
	if got := t1.Sub(t0); got != 5*Millisecond {
		t.Fatalf("Sub = %v, want 5ms", got)
	}
	if !t0.Before(t1) || !t1.After(t0) {
		t.Fatalf("ordering broken: t0=%v t1=%v", t0, t1)
	}
	if s := Duration(t1).Seconds(); s != 0.005 {
		t.Fatalf("Seconds = %v, want 0.005", s)
	}
}

func TestFromSeconds(t *testing.T) {
	cases := []struct {
		s    float64
		want Duration
	}{
		{0, 0},
		{1, Second},
		{0.001, Millisecond},
		{30e-6, 30 * Microsecond},
		{-0.5, -500 * Millisecond},
	}
	for _, c := range cases {
		if got := FromSeconds(c.s); got != c.want {
			t.Errorf("FromSeconds(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500 * Picosecond, "500ps"},
		{2 * Nanosecond, "2ns"},
		{30 * Microsecond, "30us"},
		{5 * Millisecond, "5ms"},
		{2 * Second, "2s"},
		{-3 * Millisecond, "-3ms"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.After(30*Nanosecond, "c", func() { order = append(order, 3) })
	s.After(10*Nanosecond, "a", func() { order = append(order, 1) })
	s.After(20*Nanosecond, "b", func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if s.Now() != Time(30*Nanosecond) {
		t.Fatalf("Now = %v, want 30ns", s.Now())
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Time(5*Microsecond), "tie", func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	ran := false
	e := s.After(Microsecond, "x", func() { ran = true })
	if !e.Pending() {
		t.Fatal("event should be pending before cancel")
	}
	s.Cancel(e)
	s.Cancel(e) // idempotent
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if e.Pending() {
		t.Fatal("cancelled event still pending")
	}
}

func TestSchedulerCancelFromCallback(t *testing.T) {
	s := NewScheduler()
	ran := false
	var e2 Event
	s.After(Nanosecond, "first", func() { s.Cancel(e2) })
	e2 = s.After(2*Nanosecond, "second", func() { ran = true })
	s.Run()
	if ran {
		t.Fatal("event cancelled from an earlier callback still ran")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewScheduler()
	s.After(Millisecond, "advance", func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(Time(Microsecond), "past", func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	s.After(-Nanosecond, "neg", func() {})
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	s := NewScheduler()
	var fired []string
	s.After(Millisecond, "early", func() { fired = append(fired, "early") })
	s.After(Second, "late", func() { fired = append(fired, "late") })
	s.RunUntil(Time(10 * Millisecond))
	if len(fired) != 1 || fired[0] != "early" {
		t.Fatalf("fired = %v, want [early]", fired)
	}
	if s.Now() != Time(10*Millisecond) {
		t.Fatalf("Now = %v, want 10ms", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	s.Run()
	if len(fired) != 2 {
		t.Fatalf("late event lost: %v", fired)
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	s := NewScheduler()
	ran := false
	s.At(Time(Millisecond), "boundary", func() { ran = true })
	s.RunUntil(Time(Millisecond))
	if !ran {
		t.Fatal("event at exactly the deadline did not fire")
	}
}

func TestEventScheduledDuringRunUntil(t *testing.T) {
	s := NewScheduler()
	var hits []Time
	s.After(Millisecond, "a", func() {
		hits = append(hits, s.Now())
		s.After(Millisecond, "b", func() { hits = append(hits, s.Now()) })
	})
	s.RunUntil(Time(5 * Millisecond))
	if len(hits) != 2 || hits[1] != Time(2*Millisecond) {
		t.Fatalf("hits = %v, want firings at 1ms and 2ms", hits)
	}
}

func TestTicker(t *testing.T) {
	s := NewScheduler()
	var ticks []Time
	tk := s.Every(Time(Microsecond), Microsecond, "tick", func(at Time) {
		ticks = append(ticks, at)
		if len(ticks) == 5 {
			// Stopping from inside the callback must work.
		}
	})
	s.RunUntil(Time(5 * Microsecond))
	tk.Stop()
	tk.Stop() // idempotent
	s.RunUntil(Time(20 * Microsecond))
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5: %v", len(ticks), ticks)
	}
	for i, at := range ticks {
		want := Time((i + 1)) * Time(Microsecond)
		if at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	s := NewScheduler()
	n := 0
	var tk *Ticker
	tk = s.Every(0, Microsecond, "tick", func(Time) {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	s.RunUntil(Time(Millisecond))
	if n != 3 {
		t.Fatalf("ticker fired %d times after in-callback Stop, want 3", n)
	}
}

func TestZeroPeriodTickerPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Fatal("zero-period ticker did not panic")
		}
	}()
	s.Every(0, 0, "bad", func(Time) {})
}

// Property: for any random batch of event timestamps, the scheduler fires
// them in non-decreasing time order and ends at the max timestamp.
func TestSchedulerOrderProperty(t *testing.T) {
	f := func(offsets []uint32) bool {
		if len(offsets) == 0 {
			return true
		}
		s := NewScheduler()
		var fired []Time
		var maxT Time
		for _, off := range offsets {
			at := Time(off) * Time(Nanosecond)
			if at > maxT {
				maxT = at
			}
			s.At(at, "p", func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(offsets) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		return s.Now() == maxT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset of events fires exactly the others.
func TestSchedulerCancelProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		s := NewScheduler()
		const n = 100
		//odrips:allow handle property test holds handles only while all stay live, precisely to exercise Cancel
		events := make([]Event, n)
		firedCount := 0
		for i := range events {
			events[i] = s.At(Time(rng.Intn(1000))*Time(Nanosecond), "p", func() { firedCount++ })
		}
		cancelled := 0
		for _, e := range events {
			if rng.Intn(2) == 0 {
				s.Cancel(e)
				cancelled++
			}
		}
		s.Run()
		if firedCount != n-cancelled {
			t.Fatalf("trial %d: fired %d, want %d", trial, firedCount, n-cancelled)
		}
	}
}

// Regression: a cancelled event sitting at the head of the queue with a
// timestamp exactly at the RunUntil deadline must not fire, must not stall
// the drain, and must still advance the clock to the deadline. (The old
// implementation kept cancelled tombstones in the queue and had two
// different skip loops — Step's and RunUntil's — to drain them; Cancel now
// removes the entry eagerly so every drain path is the same code.)
func TestRunUntilCancelledHeadAtDeadline(t *testing.T) {
	s := NewScheduler()
	ran := false
	later := false
	head := s.At(Time(Millisecond), "head", func() { ran = true })
	s.At(Time(2*Millisecond), "later", func() { later = true })
	s.Cancel(head)
	s.RunUntil(Time(Millisecond))
	if ran {
		t.Fatal("cancelled head event fired")
	}
	if later {
		t.Fatal("event beyond the deadline fired")
	}
	if s.Now() != Time(Millisecond) {
		t.Fatalf("Now = %v, want the 1ms deadline", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 (cancelled entries must leave the queue)", s.Pending())
	}
	s.Run()
	if !later {
		t.Fatal("surviving event lost")
	}
}

// Stale handles must stay inert after their slot is recycled: cancelling a
// fired event whose slot now hosts a different live event must not disturb
// the new occupant.
func TestStaleHandleAfterRecycle(t *testing.T) {
	s := NewScheduler()
	old := s.After(Nanosecond, "old", func() {})
	s.RunFor(Nanosecond) // fires and recycles old's slot
	if old.Pending() {
		t.Fatal("fired event still pending")
	}
	ran := false
	fresh := s.After(Nanosecond, "fresh", func() { ran = true })
	s.Cancel(old) // stale: must not cancel the recycled slot's new event
	if !fresh.Pending() {
		t.Fatal("stale Cancel removed the slot's new occupant")
	}
	s.Run()
	if !ran {
		t.Fatal("recycled event did not fire")
	}
}

// The zero-value Event is a valid stale handle everywhere.
func TestZeroEventInert(t *testing.T) {
	s := NewScheduler()
	var e Event
	if e.Valid() || e.Pending() {
		t.Fatal("zero event claims validity")
	}
	s.Cancel(e) // must not panic
}

func BenchmarkSchedulerChurn(b *testing.B) {
	s := NewScheduler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		victim := s.After(2*Nanosecond, "bench-cancel", func() {})
		s.After(Nanosecond, "bench", func() {})
		s.Cancel(victim)
		s.RunFor(Nanosecond)
	}
}

func TestClearDropsAllPendingEvents(t *testing.T) {
	s := NewScheduler()
	ran := 0
	//odrips:allow handle the test holds handles across Clear precisely to assert they go stale
	var held []Event
	for i := 1; i <= 5; i++ {
		held = append(held, s.After(Duration(i)*Microsecond, "x", func() { ran++ }))
	}
	tk := s.Every(s.Now().Add(Microsecond), Microsecond, "tick", func(Time) { ran++ })
	if n := s.Pending(); n != 6 {
		t.Fatalf("pending = %d, want 6", n)
	}
	if n := s.Clear(); n != 6 {
		t.Fatalf("Clear dropped %d events, want 6", n)
	}
	if n := s.Pending(); n != 0 {
		t.Fatalf("pending after Clear = %d, want 0", n)
	}
	for i, e := range held {
		if e.Pending() {
			t.Fatalf("handle %d still pending after Clear", i)
		}
	}
	s.Run()
	if ran != 0 {
		t.Fatalf("%d cleared events ran", ran)
	}
	tk.Stop() // stale handle inside; must be a no-op

	// The scheduler stays fully usable: slots recycle through the free list.
	fired := false
	s.After(Microsecond, "after-clear", func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("event scheduled after Clear did not run")
	}
}

func TestClearFromCallback(t *testing.T) {
	s := NewScheduler()
	ran := 0
	s.After(Microsecond, "clearer", func() { s.Clear() })
	s.After(2*Microsecond, "victim", func() { ran++ })
	s.After(3*Microsecond, "victim", func() { ran++ })
	s.Run()
	if ran != 0 {
		t.Fatalf("%d events ran after an in-callback Clear", ran)
	}
	if s.Pending() != 0 {
		t.Fatal("queue not empty after in-callback Clear")
	}
}
