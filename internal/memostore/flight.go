package memostore

import "sync"

// Flight is a generic in-process single-flight group: concurrent Do
// calls for the same key share one execution of compute. It exists for
// the memo layers' load-miss→compute→save pipelines, where N workers
// hitting the same cold key would otherwise each pay the simulation —
// the computes are deterministic, so sharing the leader's result is
// byte-identical to recomputing.
//
// Completed calls are forgotten immediately (delete-before-close), so a
// caller arriving after the leader finished starts a fresh flight; the
// durable dedup across waves is the memo store itself. The zero Flight
// is ready to use.
type Flight[V any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[V]
}

type flightCall[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// Do returns compute()'s result for key, coalescing concurrent callers:
// exactly one (the leader, shared=false) runs compute; the rest block
// and receive the leader's value and error (shared=true). The leader's
// error is shared verbatim — callers for whom a shared failure is not
// equivalent to their own must retry without the flight.
func (f *Flight[V]) Do(key string, compute func() (V, error)) (v V, shared bool, err error) {
	f.mu.Lock()
	if f.calls == nil {
		f.calls = make(map[string]*flightCall[V])
	}
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		<-c.done
		return c.v, true, c.err
	}
	c := &flightCall[V]{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()

	c.v, c.err = compute()
	f.mu.Lock()
	delete(f.calls, key)
	f.mu.Unlock()
	close(c.done)
	return c.v, false, c.err
}

// LoadOrCompute is the memo pipeline load-miss→compute→save with
// in-process single-flight dedup: concurrent callers for the same
// (class, key) share one compute, and the result is persisted (when the
// store is writable) so later waves — and other processes — load it. A
// nil store degrades to a plain compute call. A *CorruptError from the
// load is a fail-safe miss and falls through to compute.
func (s *Store) LoadOrCompute(class string, key []byte, compute func() ([]byte, error)) ([]byte, error) {
	if s == nil {
		return compute()
	}
	if payload, ok, err := s.Load(class, key); err == nil && ok {
		return payload, nil
	}
	v, shared, err := s.flight.Do(class+"\x00"+string(key), func() ([]byte, error) {
		// Re-probe under the flight: a previous leader may have landed
		// the entry between our miss above and winning the lead.
		if payload, ok, lerr := s.Load(class, key); lerr == nil && ok {
			return payload, nil
		}
		payload, cerr := compute()
		if cerr != nil {
			return nil, cerr
		}
		s.Save(class, key, payload)
		return payload, nil
	})
	s.count(func(st *Stats) {
		if shared {
			st.FlightShared++
		} else {
			st.FlightLeads++
		}
	})
	return v, err
}
