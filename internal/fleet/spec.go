package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"odrips/internal/sim"
)

// SpecError is the typed error for job-spec decode, encode, and
// validation failures. The serving layer maps it to a 400 with the
// reason in the body; the fuzz harness (FuzzJobSpec) pins that arbitrary
// input yields either a *SpecError or a canonical round-trip — never a
// panic, never an untyped error.
type SpecError struct {
	Reason string // "decode", "duration", "validate", "encode"
	Err    error
}

func (e *SpecError) Error() string { return fmt.Sprintf("fleet: spec %s: %v", e.Reason, e.Err) }

// Unwrap exposes the cause for errors.Is/As.
func (e *SpecError) Unwrap() error { return e.Err }

func specErrf(reason, format string, args ...any) *SpecError {
	return &SpecError{Reason: reason, Err: fmt.Errorf(format, args...)}
}

// specJSON is the on-disk fleet spec: the Spec fields with durations as
// human strings ("6h", "30s", "250ms") so spec files stay readable.
type specJSON struct {
	Name       string `json:"name"`
	Devices    int    `json:"devices"`
	Preset     string `json:"preset"`
	Horizon    string `json:"horizon"`
	Active     string `json:"active"`
	WakePeriod string `json:"wake_period"`
	Shards     int    `json:"shards"`
	Spread     struct {
		DriftPPB    []int64   `json:"drift_ppb"`
		BatteryMWh  []float64 `json:"battery_mwh"`
		JitterSteps []string  `json:"jitter_steps"`
		Faults      []struct {
			Device int    `json:"device"`
			Plan   string `json:"plan"`
		} `json:"faults"`
	} `json:"spread"`
}

// ParseSpecJSON decodes a fleet spec file. Unknown fields are errors
// (a typoed knob silently defaulting would corrupt a fleet study), as is
// anything but whitespace after the spec object, and the decoded spec is
// validated after defaulting. Every failure is a *SpecError.
func ParseSpecJSON(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sj specJSON
	if err := dec.Decode(&sj); err != nil {
		return Spec{}, &SpecError{Reason: "decode", Err: err}
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, specErrf("decode", "data after the spec object at offset %d", dec.InputOffset())
	}
	s := Spec{
		Name:    sj.Name,
		Devices: sj.Devices,
		Preset:  sj.Preset,
		Shards:  sj.Shards,
	}
	var err error
	if s.Horizon, err = parseDur(sj.Horizon); err != nil {
		return Spec{}, specErrf("duration", "horizon: %w", err)
	}
	if s.Active, err = parseDur(sj.Active); err != nil {
		return Spec{}, specErrf("duration", "active: %w", err)
	}
	if s.WakePeriod, err = parseDur(sj.WakePeriod); err != nil {
		return Spec{}, specErrf("duration", "wake_period: %w", err)
	}
	s.Spread.DriftPPB = sj.Spread.DriftPPB
	s.Spread.BatteryMWh = sj.Spread.BatteryMWh
	if len(sj.Spread.JitterSteps) > 0 {
		s.Spread.JitterSteps = make([]sim.Duration, len(sj.Spread.JitterSteps))
		for i, js := range sj.Spread.JitterSteps {
			if s.Spread.JitterSteps[i], err = parseDur(js); err != nil {
				return Spec{}, specErrf("duration", "jitter step %d: %w", i, err)
			}
		}
	}
	for _, f := range sj.Spread.Faults {
		s.Spread.Faults = append(s.Spread.Faults, DeviceFaults{Device: f.Device, Plan: f.Plan})
	}
	if err := s.withDefaults().Validate(); err != nil {
		return Spec{}, &SpecError{Reason: "validate", Err: err}
	}
	return s, nil
}

// EncodeSpecJSON renders a spec in the canonical on-disk form — the
// exact inverse of ParseSpecJSON. Parse∘Encode is the identity and
// Encode∘Parse is a fixpoint after one round (durations normalize to
// time.Duration.String form), which is what makes encoded specs usable
// as content-addressed job identities. Sub-nanosecond durations (never
// produced by Parse) are an "encode" *SpecError rather than silent
// truncation.
func EncodeSpecJSON(s Spec) ([]byte, error) {
	var sj specJSON
	sj.Name = s.Name
	sj.Devices = s.Devices
	sj.Preset = s.Preset
	var err error
	if sj.Horizon, err = formatDur(s.Horizon); err != nil {
		return nil, specErrf("encode", "horizon: %w", err)
	}
	if sj.Active, err = formatDur(s.Active); err != nil {
		return nil, specErrf("encode", "active: %w", err)
	}
	if sj.WakePeriod, err = formatDur(s.WakePeriod); err != nil {
		return nil, specErrf("encode", "wake_period: %w", err)
	}
	sj.Shards = s.Shards
	sj.Spread.DriftPPB = s.Spread.DriftPPB
	sj.Spread.BatteryMWh = s.Spread.BatteryMWh
	if len(s.Spread.JitterSteps) > 0 {
		sj.Spread.JitterSteps = make([]string, len(s.Spread.JitterSteps))
		for i, js := range s.Spread.JitterSteps {
			if sj.Spread.JitterSteps[i], err = formatDur(js); err != nil {
				return nil, specErrf("encode", "jitter step %d: %w", i, err)
			}
		}
	}
	for _, f := range s.Spread.Faults {
		sj.Spread.Faults = append(sj.Spread.Faults, struct {
			Device int    `json:"device"`
			Plan   string `json:"plan"`
		}{Device: f.Device, Plan: f.Plan})
	}
	b, err := json.Marshal(sj)
	if err != nil {
		return nil, &SpecError{Reason: "encode", Err: err}
	}
	return b, nil
}

// formatDur renders sim time in the human form parseDur accepts.
func formatDur(d sim.Duration) (string, error) {
	if d%sim.Nanosecond != 0 {
		return "", fmt.Errorf("%d ps is not a whole nanosecond", int64(d))
	}
	return time.Duration(int64(d / sim.Nanosecond)).String(), nil
}
