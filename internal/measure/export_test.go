package measure

import (
	"fmt"
	"math"
)

// Stats summarizes one channel of a capture.
type Stats struct {
	Samples int
	AvgMW   float64
	MinMW   float64
	MaxMW   float64
	// EnergyJ is the rectangle-rule integral of the trace.
	EnergyJ float64
}

// ChannelStats computes summary statistics for channel index ch.
func (a *Analyzer) ChannelStats(ch int) (Stats, error) {
	if ch < 0 || ch >= len(a.channels) {
		return Stats{}, fmt.Errorf("measure: channel %d out of range", ch)
	}
	if len(a.samples) == 0 {
		return Stats{}, fmt.Errorf("measure: empty capture")
	}
	st := Stats{Samples: len(a.samples), MinMW: math.Inf(1), MaxMW: math.Inf(-1)}
	var sum float64
	for _, s := range a.samples {
		v := s.MW[ch]
		sum += v
		st.MinMW = math.Min(st.MinMW, v)
		st.MaxMW = math.Max(st.MaxMW, v)
	}
	st.AvgMW = sum / float64(len(a.samples))
	st.EnergyJ = sum * 1e-3 * a.interval.Seconds()
	return st, nil
}
