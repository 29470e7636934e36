// Package measure models the paper's measurement infrastructure (§7,
// Fig. 5): a DC power analyzer in the style of the Keysight N6705B with an
// N6781A source-measurement unit: four analog channels sampled on a fixed
// 50-microsecond interval. The experiments use it to "measure" the
// simulated platform the same way the authors measured silicon, and to
// validate the analytic Equation-1 model against sampled data.
package measure

import (
	"fmt"

	"odrips/internal/sim"
)

// SamplingInterval is the paper's analyzer configuration (§7).
const SamplingInterval = 50 * sim.Microsecond

// MaxChannels matches the four analog channels of the instrument.
const MaxChannels = 4

// Channel is one analog input: a name and a probe returning instantaneous
// power in milliwatts.
type Channel struct {
	Name  string
	Probe func() float64
}

// Sample is one captured point.
type Sample struct {
	At sim.Time
	MW []float64 // one value per channel
}

// Analyzer captures synchronized samples of up to four channels.
type Analyzer struct {
	sched    *sim.Scheduler
	channels []Channel
	interval sim.Duration

	samples []Sample
	ticker  *sim.Ticker
	running bool
}

// NewAnalyzer builds an analyzer with the standard 50 us interval.
func NewAnalyzer(sched *sim.Scheduler, channels ...Channel) (*Analyzer, error) {
	if len(channels) == 0 {
		return nil, fmt.Errorf("measure: no channels")
	}
	if len(channels) > MaxChannels {
		return nil, fmt.Errorf("measure: %d channels exceed the instrument's %d", len(channels), MaxChannels)
	}
	for _, c := range channels {
		if c.Probe == nil {
			return nil, fmt.Errorf("measure: channel %q has no probe", c.Name)
		}
	}
	return &Analyzer{sched: sched, channels: channels, interval: SamplingInterval}, nil
}

// SetInterval overrides the sampling interval (coarser captures for long
// windows). Only legal while stopped.
func (a *Analyzer) SetInterval(d sim.Duration) error {
	if a.running {
		return fmt.Errorf("measure: interval change while running")
	}
	if d <= 0 {
		return fmt.Errorf("measure: non-positive interval")
	}
	a.interval = d
	return nil
}

// Start begins sampling at the next interval boundary.
func (a *Analyzer) Start() error {
	if a.running {
		return fmt.Errorf("measure: already running")
	}
	a.running = true
	a.ticker = a.sched.Every(a.sched.Now(), a.interval, "analyzer.sample", func(at sim.Time) {
		s := Sample{At: at, MW: make([]float64, len(a.channels))}
		for i, c := range a.channels {
			s.MW[i] = c.Probe()
		}
		a.samples = append(a.samples, s)
	})
	return nil
}

// StopAt schedules the end of the capture. Required when the capture runs
// under a scheduler loop that drains the event queue (platform.RunCycles):
// without a scheduled stop, the sampling ticker re-arms forever and the
// run never terminates.
func (a *Analyzer) StopAt(t sim.Time) sim.Event {
	return a.sched.At(t, "analyzer.stop", a.Stop)
}

// Stop ends the capture.
func (a *Analyzer) Stop() {
	if !a.running {
		return
	}
	a.running = false
	a.ticker.Stop()
}

// Samples returns the captured trace.
func (a *Analyzer) Samples() []Sample { return a.samples }

// ChannelNames returns the configured channel names.
func (a *Analyzer) ChannelNames() []string {
	names := make([]string, len(a.channels))
	for i, c := range a.channels {
		names[i] = c.Name
	}
	return names
}
