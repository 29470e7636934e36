package platform

import (
	"odrips/internal/power"
	"odrips/internal/sim"
)

// tracker accumulates per-state residency and battery energy by diffing
// exact meter energies at every state transition. It also merges the
// per-component energy spent in the Idle state for the Fig. 1(b) breakdown.
//
// All accumulation is integer fixed-point (power.Energy), keyed by the
// meter's registration order rather than by name, so the fast-forward
// engine can apply a recorded cycle's contribution as exact arithmetic
// deltas (DESIGN.md §12) and reach bit-identical state.
type tracker struct {
	sched *sim.Scheduler
	meter *power.Meter

	cur   power.State
	since sim.Time
	last  []power.Energy // battery energy per component at last transition

	residency map[power.State]sim.Duration
	energy    map[power.State]power.Energy
	idleByCmp []power.Energy // battery energy per component while Idle

	transitions uint64
}

func newTracker(s *sim.Scheduler, m *power.Meter) *tracker {
	n := len(m.Ordered())
	t := &tracker{
		sched:     s,
		meter:     m,
		cur:       power.Active,
		since:     s.Now(),
		last:      make([]power.Energy, n),
		residency: make(map[power.State]sim.Duration),
		energy:    make(map[power.State]power.Energy),
		idleByCmp: make([]power.Energy, n),
	}
	t.capture(t.last)
	return t
}

// capture fills dst with each component's settled battery energy, in
// registration order.
func (t *tracker) capture(dst []power.Energy) {
	for i, c := range t.meter.Ordered() {
		_, batt := t.meter.EnergyOf(c)
		dst[i] = batt
	}
}

// to closes the current state's interval and opens the next.
func (t *tracker) to(next power.State) {
	now := t.sched.Now()
	t.residency[t.cur] += now.Sub(t.since)
	var spent power.Energy
	for i, c := range t.meter.Ordered() {
		_, batt := t.meter.EnergyOf(c)
		d := batt.Sub(t.last[i])
		spent = spent.Add(d)
		if t.cur == power.Idle {
			t.idleByCmp[i] = t.idleByCmp[i].Add(d)
		}
		t.last[i] = batt
	}
	t.energy[t.cur] = t.energy[t.cur].Add(spent)
	t.cur = next
	t.since = now
	t.transitions++
}

// finish closes the open interval without changing state.
func (t *tracker) finish() { t.to(t.cur) }
