// Package maporder is an odrips-vet test fixture: order-sensitive effects
// inside range-over-map loops.
package maporder

import (
	"fmt"
	"sort"

	"odrips/internal/sim"
)

// badAppend collects keys in randomized iteration order.
func badAppend(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want maporder
	}
	return out
}

// goodSorted is the collect-then-sort idiom; the append is fine because the
// slice is sorted before anyone observes its order.
func goodSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// badSend delivers map values in randomized order.
func badSend(m map[string]int, ch chan int) {
	for _, v := range m {
		ch <- v // want maporder
	}
}

// badPrint writes output in randomized order.
func badPrint(m map[string]int) {
	for k := range m {
		fmt.Println(k) // want maporder
	}
}

// badSchedule hands the scheduler events in randomized order, so tie-broken
// sequence numbers differ run to run.
func badSchedule(s *sim.Scheduler, m map[string]sim.Duration) {
	for name, d := range m {
		_ = name
		s.After(d, "fixture", func() {}) // want maporder
	}
}

// goodKeyed writes into another map: keyed, order-insensitive.
func goodKeyed(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// goodSum folds with a commutative integer op.
func goodSum(m map[string]int) int {
	t := 0
	for _, v := range m {
		t += v
	}
	return t
}

// allowed shows the audited escape hatch.
func allowed(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) //odrips:allow maporder fixture exercises the allow path
	}
	return out
}
