// Package gotrack is an odrips-vet test fixture: goroutine launches that
// nothing joins, and launches inside range-over-map.
package gotrack

import "sync"

func leak() {}

// badNamed launches a named function: the join (if any) is invisible at
// the launch site.
func badNamed() {
	go leak() // want gotrack
}

// badFireAndForget launches a closure no WaitGroup ever joins.
func badFireAndForget(ch chan int) {
	go func() { // want gotrack
		ch <- 1
	}()
}

// badMapRange launches in map-iteration order; even a joined goroutine is
// flagged because the launch order itself varies run to run.
func badMapRange(m map[string]int) {
	var wg sync.WaitGroup
	for k := range m {
		_ = k
		wg.Add(1)
		go func() { // want gotrack
			defer wg.Done()
		}()
	}
	wg.Wait()
}

// goodJoined is the worker-pool idiom: every launch is joined before
// results are read.
func goodJoined(items []int) int {
	var (
		wg  sync.WaitGroup
		sum int
		mu  sync.Mutex
	)
	wg.Add(len(items))
	for _, v := range items {
		go func() {
			defer wg.Done()
			mu.Lock()
			sum += v
			mu.Unlock()
		}()
	}
	wg.Wait()
	return sum
}

// goodNestedDone joins through a deferred closure; the Done call still
// resolves inside the goroutine body.
func goodNestedDone() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer func() { wg.Done() }()
	}()
	wg.Wait()
}

// allowed shows the audited escape hatch for genuinely detached
// goroutines (a server accept loop).
func allowed() {
	go leak() //odrips:allow gotrack fixture stands in for a detached accept loop
}
