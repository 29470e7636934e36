package clock

import (
	"math"
	"testing"
	"testing/quick"

	"odrips/internal/sim"
)

func newTestOsc(t *testing.T, hz uint64, ppb int64) (*sim.Scheduler, *Oscillator) {
	t.Helper()
	s := sim.NewScheduler()
	o := NewOscillator(s, "osc", hz, ppb, 0)
	o.PowerOn()
	return s, o
}

func TestOscillatorExactEdges24MHz(t *testing.T) {
	_, o := newTestOsc(t, 24_000_000, 0)
	// Period is 125000/3 ps = 41666.66..ps; edge times are floor(k*125000/3).
	cases := []struct {
		k    uint64
		want sim.Time
	}{
		{0, 0},
		{1, 41666},
		{2, 83333},
		{3, 125000},
		{24_000_000, sim.Time(sim.Second)},
		{48_000_000, sim.Time(2 * sim.Second)},
	}
	for _, c := range cases {
		if got := o.EdgeTime(c.k); got != c.want {
			t.Errorf("EdgeTime(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

func TestOscillatorExactEdges32KHz(t *testing.T) {
	_, o := newTestOsc(t, 32_768, 0)
	// Period = 1e12/32768 ps = 30517578.125 ps exactly.
	if got := o.EdgeTime(8); got != sim.Time(8*30517578)+sim.Time(1) {
		t.Errorf("EdgeTime(8) = %d, want %d (8 periods = 244140625 ps exactly)", got, 8*30517578+1)
	}
	if got := o.EdgeTime(32_768); got != sim.Time(sim.Second) {
		t.Errorf("EdgeTime(32768) = %v, want 1s", got)
	}
}

func TestOscillatorPPB(t *testing.T) {
	// +1000 ppb crystal runs fast: one nominal second elapses in slightly
	// fewer picoseconds.
	_, o := newTestOsc(t, 24_000_000, 1000)
	exact := o.EdgeTime(24_000_000)
	want := 1e12 / (1 + 1000e-9)
	if math.Abs(float64(exact)-want) > 1 {
		t.Errorf("edge 24e6 at %d ps, want ~%.0f ps", exact, want)
	}
}

func TestNextEdge(t *testing.T) {
	s, o := newTestOsc(t, 24_000_000, 0)
	k, at, ok := o.NextEdge(s.Now())
	if !ok || k != 0 || at != 0 {
		t.Fatalf("NextEdge(0) = %d,%v,%v; want 0,0,true", k, at, ok)
	}
	// Just after edge 1 (41666 ps) the next edge is edge 2 at 83333.
	k, at, ok = o.NextEdge(sim.Time(41_667))
	if !ok || k != 2 || at != sim.Time(83_333) {
		t.Fatalf("NextEdge(41667) = %d,%v,%v; want 2,83333,true", k, at, ok)
	}
	// Exactly on edge 3 returns edge 3.
	k, at, ok = o.NextEdge(sim.Time(125_000))
	if !ok || k != 3 || at != sim.Time(125_000) {
		t.Fatalf("NextEdge(125000) = %d,%v,%v; want 3,125000,true", k, at, ok)
	}
	o.PowerOff()
	if _, _, ok := o.NextEdge(s.Now()); ok {
		t.Fatal("NextEdge on a powered-off oscillator reported ok")
	}
}

func TestEdgesBetween(t *testing.T) {
	_, o := newTestOsc(t, 32_768, 0)
	// Exactly one second: 32768 edges in (0, 1s].
	if got := o.EdgesBetween(0, sim.Time(sim.Second)); got != 32_768 {
		t.Fatalf("EdgesBetween(0,1s) = %d, want 32768", got)
	}
	// Empty interval.
	if got := o.EdgesBetween(sim.Time(sim.Second), sim.Time(sim.Second)); got != 0 {
		t.Fatalf("EdgesBetween(1s,1s) = %d, want 0", got)
	}
	// Half-open: an edge exactly at t1 is excluded, at t2 included.
	e5 := o.EdgeTime(5)
	if got := o.EdgesBetween(e5, o.EdgeTime(7)); got != 2 {
		t.Fatalf("EdgesBetween(edge5,edge7) = %d, want 2", got)
	}
}

func TestEdgesBetweenReversedPanics(t *testing.T) {
	_, o := newTestOsc(t, 32_768, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("EdgesBetween(t2<t1) did not panic")
		}
	}()
	o.EdgesBetween(sim.Time(sim.Second), 0)
}

func TestStartupLatencyAndPhaseRestart(t *testing.T) {
	s := sim.NewScheduler()
	o := NewOscillator(s, "xtal24", 24_000_000, 0, sim.Millisecond)
	o.PowerOn()
	if o.Stable() {
		t.Fatal("oscillator stable immediately despite 1ms startup latency")
	}
	if o.stableAt != sim.Time(sim.Millisecond) {
		t.Fatalf("StableAt = %v, want 1ms", o.stableAt)
	}
	s.RunFor(2 * sim.Millisecond)
	if !o.Stable() {
		t.Fatal("oscillator not stable after startup latency")
	}
	// Power cycle at t=2ms: new epoch for edges.
	o.PowerOff()
	o.PowerOn()
	if o.stableAt != sim.Time(3*sim.Millisecond) {
		t.Fatalf("restarted StableAt = %v, want 3ms", o.stableAt)
	}
	if got := o.EdgeTime(0); got != sim.Time(3*sim.Millisecond) {
		t.Fatalf("edge 0 after restart at %v, want 3ms", got)
	}
}

func TestPowerHook(t *testing.T) {
	s := sim.NewScheduler()
	o := NewOscillator(s, "x", 32_768, 0, 0)
	var log []bool
	o.OnPower = func(on bool) { log = append(log, on) }
	o.PowerOn()
	o.PowerOn() // no-op
	o.PowerOff()
	o.PowerOff() // no-op
	if len(log) != 2 || log[0] != true || log[1] != false {
		t.Fatalf("power hook log = %v, want [true false]", log)
	}
}

func TestScheduleEdge(t *testing.T) {
	s, o := newTestOsc(t, 32_768, 0)
	var fired sim.Time
	s.RunFor(10 * sim.Nanosecond) // move off edge 0
	o.ScheduleEdge("edge", func() { fired = s.Now() })
	s.Run()
	if fired != o.EdgeTime(1) {
		t.Fatalf("edge callback at %v, want %v", fired, o.EdgeTime(1))
	}
}

func TestDomainGating(t *testing.T) {
	s, o := newTestOsc(t, 24_000_000, 0)
	d := NewDomain("proc24", o)
	var gateLog []bool
	d.OnGate = func(g bool) { gateLog = append(gateLog, g) }
	if !d.Running() {
		t.Fatal("ungated domain with stable source not running")
	}
	d.Gate()
	d.Gate()
	if d.Running() {
		t.Fatal("gated domain reported running")
	}
	if _, _, ok := d.NextEdge(s.Now()); ok {
		t.Fatal("gated domain delivered an edge")
	}
	d.Ungate()
	if k, at, ok := d.NextEdge(s.Now()); !ok || k != 0 || at != 0 {
		t.Fatalf("ungated NextEdge = %d,%v,%v", k, at, ok)
	}
	if len(gateLog) != 2 {
		t.Fatalf("gate hook fired %d times, want 2", len(gateLog))
	}
	o.PowerOff()
	if d.Running() {
		t.Fatal("domain running with source off")
	}
}

func TestZeroFrequencyPanics(t *testing.T) {
	s := sim.NewScheduler()
	defer func() {
		if recover() == nil {
			t.Fatal("zero-frequency oscillator did not panic")
		}
	}()
	NewOscillator(s, "bad", 0, 0, 0)
}

// Property: edge times are strictly increasing and consecutive deltas are
// within 1 ps of the true period, for random frequencies and ppb errors.
func TestEdgeMonotonicProperty(t *testing.T) {
	f := func(hzSeed uint32, ppbSeed int16, kSeed uint16) bool {
		hz := uint64(hzSeed%100_000_000) + 1
		ppb := int64(ppbSeed) * 100 // ±3.2768e6 ppb max
		if ppb <= -1e9 {
			ppb = -999_999_999
		}
		s := sim.NewScheduler()
		o := NewOscillator(s, "p", hz, ppb, 0)
		o.PowerOn()
		k := uint64(kSeed)
		t0, t1 := o.EdgeTime(k), o.EdgeTime(k+1)
		periodPs := 1e12 / o.ActualHz()
		if t1 <= t0 && periodPs >= 1 {
			return false
		}
		return math.Abs(float64(t1.Sub(t0))-periodPs) <= 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: NextEdge(EdgeTime(k)) == k for random k (idempotent on edges).
func TestNextEdgeOnEdgeProperty(t *testing.T) {
	f := func(kSeed uint16) bool {
		s := sim.NewScheduler()
		o := NewOscillator(s, "p", 32_768, 37, 0)
		o.PowerOn()
		k := uint64(kSeed)
		gotK, at, ok := o.NextEdge(o.EdgeTime(k))
		return ok && gotK == k && at == o.EdgeTime(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: EdgesBetween is additive: edges(a,c) = edges(a,b)+edges(b,c).
func TestEdgesBetweenAdditiveProperty(t *testing.T) {
	f := func(a, b, c uint32) bool {
		ts := []sim.Time{sim.Time(a), sim.Time(b), sim.Time(c)}
		if ts[0] > ts[1] {
			ts[0], ts[1] = ts[1], ts[0]
		}
		if ts[1] > ts[2] {
			ts[1], ts[2] = ts[2], ts[1]
		}
		if ts[0] > ts[1] {
			ts[0], ts[1] = ts[1], ts[0]
		}
		s := sim.NewScheduler()
		o := NewOscillator(s, "p", 24_000_000, -250, 0)
		o.PowerOn()
		return o.EdgesBetween(ts[0], ts[2]) ==
			o.EdgesBetween(ts[0], ts[1])+o.EdgesBetween(ts[1], ts[2])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEdgeTime(b *testing.B) {
	s := sim.NewScheduler()
	o := NewOscillator(s, "bench", 24_000_000, 42, 0)
	o.PowerOn()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.EdgeTime(uint64(i))
	}
}

func TestRetunePreservesEdgeContinuity(t *testing.T) {
	s, o := newTestOsc(t, 24_000_000, 0)
	s.RunFor(sim.Millisecond)
	// Count edges in the first millisecond: exactly 24000 (plus edge 0).
	before := o.EdgesBetween(0, s.Now())
	o.Retune(1_000_000) // +1000 ppm: visibly faster
	// The re-anchored edge 0 is at or before now, never in the future.
	if o.stableAt.After(s.Now()) {
		t.Fatalf("retune anchored in the future: %v > %v", o.stableAt, s.Now())
	}
	s.RunFor(sim.Millisecond)
	after := o.EdgesBetween(o.stableAt, s.Now())
	// ~24024 edges in the second millisecond.
	if after < 24_010 || after > 24_040 {
		t.Fatalf("retuned edge count = %d, want ~24024", after)
	}
	if before < 24_000-1 || before > 24_000+1 {
		t.Fatalf("pre-retune edge count = %d", before)
	}
	if o.PPB() != 1_000_000 {
		t.Fatalf("PPB = %d", o.PPB())
	}
}

func TestRetuneWhileOff(t *testing.T) {
	s := sim.NewScheduler()
	o := NewOscillator(s, "x", 32_768, 0, 0)
	o.Retune(500) // legal while off; takes effect on power-on
	o.PowerOn()
	if o.PPB() != 500 {
		t.Fatal("retune while off lost")
	}
}

func TestRetuneInvalidPanics(t *testing.T) {
	s, o := newTestOsc(t, 32_768, 0)
	_ = s
	defer func() {
		if recover() == nil {
			t.Fatal("invalid retune did not panic")
		}
	}()
	o.Retune(-2_000_000_000)
}
