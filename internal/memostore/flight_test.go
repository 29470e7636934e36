package memostore

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFlightShares drives one leader and one follower until the follower
// observably joins the leader's in-flight call and receives its value.
// Each attempt terminates either way (the follower that misses the
// window leads its own instant flight), so the loop cannot hang; it
// converges on the first attempt in practice.
func TestFlightShares(t *testing.T) {
	var f Flight[int]
	for attempt := 0; attempt < 1000; attempt++ {
		release := make(chan struct{})
		started := make(chan struct{})
		entered := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(3)
		var v int
		var sharedOut bool
		var err error
		go func() {
			defer wg.Done()
			f.Do("k", func() (int, error) {
				close(started)
				<-release
				return 7, nil
			})
		}()
		go func() {
			defer wg.Done()
			<-started
			close(entered)
			v, sharedOut, err = f.Do("k", func() (int, error) { return 8, nil })
		}()
		go func() {
			defer wg.Done()
			<-entered
			runtime.Gosched()
			close(release)
		}()
		wg.Wait()
		if sharedOut {
			if v != 7 || err != nil {
				t.Fatalf("shared call got v=%d err=%v, want the leader's 7", v, err)
			}
			return
		}
	}
	t.Fatal("follower never joined the leader's flight in 1000 attempts")
}

// TestFlightInvariants stress-runs concurrent callers and checks the
// scheduling-independent invariants: every caller is exactly one of
// leader or sharer, computes equal leads, and errors propagate.
func TestFlightInvariants(t *testing.T) {
	var f Flight[int]
	var computes, leads, shares atomic.Int32
	const callers = 16
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := f.Do("k", func() (int, error) {
				computes.Add(1)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("v=%d err=%v", v, err)
			}
			if shared {
				shares.Add(1)
			} else {
				leads.Add(1)
			}
		}()
	}
	wg.Wait()
	if computes.Load() != leads.Load() || leads.Load()+shares.Load() != callers || leads.Load() < 1 {
		t.Fatalf("computes=%d leads=%d shares=%d", computes.Load(), leads.Load(), shares.Load())
	}
}

func TestLoadOrComputeSingleFlight(t *testing.T) {
	s := openT(t, RW)
	key := []byte("cold-key")
	var computes atomic.Int32
	compute := func() ([]byte, error) {
		computes.Add(1)
		return []byte("computed"), nil
	}

	const callers = 8
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := s.LoadOrCompute("sweep", key, compute)
			if err != nil || string(got) != "computed" {
				t.Errorf("got %q err=%v", got, err)
			}
		}()
	}
	wg.Wait()
	if c := computes.Load(); c < 1 || c > callers {
		t.Fatalf("computes=%d", c)
	}
	st := s.Stats()
	if st.FlightLeads+st.FlightShared+st.Hits == 0 {
		t.Fatalf("no flight or hit accounting: %+v", st)
	}

	// The result persisted: a second wave (and a fresh store) loads it
	// without computing.
	before := computes.Load()
	if got, err := s.LoadOrCompute("sweep", key, compute); err != nil || string(got) != "computed" {
		t.Fatalf("warm wave: %q %v", got, err)
	}
	n := reopen(t, s, RO)
	if got, err := n.LoadOrCompute("sweep", key, compute); err != nil || string(got) != "computed" {
		t.Fatalf("fresh store: %q %v", got, err)
	}
	if computes.Load() != before {
		t.Fatalf("warm waves recomputed (%d → %d)", before, computes.Load())
	}
}

func TestLoadOrComputeNilStore(t *testing.T) {
	var s *Store
	got, err := s.LoadOrCompute("sweep", []byte("k"), func() ([]byte, error) { return []byte("v"), nil })
	if err != nil || string(got) != "v" {
		t.Fatalf("nil store: %q %v", got, err)
	}
}
