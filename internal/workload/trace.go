package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"odrips/internal/sim"
)

// ParseTrace reads a connected-standby trace in CSV form, one cycle per
// row: `active_ms,idle_ms,wake` where wake is one of timer, external, or
// thermal (an active_ms of 0 lets the platform use its computed
// maintenance duration). Lines starting with '#' and a leading header row
// (`active_ms,...`) are skipped, so exported spreadsheets replay directly.
func ParseTrace(r io.Reader) ([]Cycle, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.Comment = '#'
	var cycles []Cycle
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", line+1, err)
		}
		line++
		if len(rec) == 0 {
			continue
		}
		if line == 1 && strings.EqualFold(strings.TrimSpace(rec[0]), "active_ms") {
			continue // header
		}
		if len(rec) != 3 {
			return nil, fmt.Errorf("workload: trace line %d: want 3 fields, got %d", line, len(rec))
		}
		activeMS, err := strconv.ParseFloat(strings.TrimSpace(rec[0]), 64)
		active, ok := msDuration(activeMS)
		if err != nil || !ok || activeMS < 0 {
			return nil, fmt.Errorf("workload: trace line %d: bad active_ms %q", line, rec[0])
		}
		idleMS, err := strconv.ParseFloat(strings.TrimSpace(rec[1]), 64)
		idle, ok := msDuration(idleMS)
		if err != nil || !ok || idle <= 0 {
			return nil, fmt.Errorf("workload: trace line %d: bad idle_ms %q", line, rec[1])
		}
		var wake WakeKind
		switch strings.ToLower(strings.TrimSpace(rec[2])) {
		case "timer", "":
			wake = WakeTimer
		case "external", "network":
			wake = WakeExternal
		case "thermal":
			wake = WakeThermal
		default:
			return nil, fmt.Errorf("workload: trace line %d: unknown wake %q", line, rec[2])
		}
		cycles = append(cycles, Cycle{Active: active, Idle: idle, Wake: wake})
	}
	if len(cycles) == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	return cycles, nil
}

// msDuration converts a trace's millisecond count to a Duration. It
// fails unless ms is finite and its picosecond count fits sim.Duration.
func msDuration(ms float64) (sim.Duration, bool) {
	s := ms / 1000
	if math.IsNaN(s) || math.Abs(s*float64(sim.Second)) >= math.MaxInt64 {
		return 0, false
	}
	return sim.FromSeconds(s), true
}
