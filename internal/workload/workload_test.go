package workload

import (
	"bytes"
	"strings"
	"testing"

	"odrips/internal/sim"
)

func TestConnectedStandbyShape(t *testing.T) {
	cycles := ConnectedStandby(500, 42)
	if len(cycles) != 500 {
		t.Fatalf("cycles = %d", len(cycles))
	}
	var external, thermal int
	for _, c := range cycles {
		if c.Idle < 27*sim.Second || c.Idle > 33*sim.Second {
			t.Fatalf("idle = %v outside 30s ±10%%", c.Idle)
		}
		switch c.Wake {
		case WakeExternal:
			external++
		case WakeThermal:
			thermal++
		}
	}
	// ~5% external, ~2% thermal.
	if external < 10 || external > 50 {
		t.Errorf("external wakes = %d/500", external)
	}
	if thermal < 2 || thermal > 30 {
		t.Errorf("thermal wakes = %d/500", thermal)
	}
}

func TestConnectedStandbyDeterministic(t *testing.T) {
	a := ConnectedStandby(50, 7)
	b := ConnectedStandby(50, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different workloads")
		}
	}
	c := ConnectedStandby(50, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestFixed(t *testing.T) {
	cycles := Fixed(3, sim.Millisecond, sim.Second)
	if len(cycles) != 3 {
		t.Fatalf("cycles = %d", len(cycles))
	}
	for _, c := range cycles {
		if c.Active != sim.Millisecond || c.Idle != sim.Second || c.Wake != WakeTimer {
			t.Fatalf("cycle = %+v", c)
		}
	}
}

func TestSweepResidencies(t *testing.T) {
	rs := SweepResidencies(600*sim.Microsecond, sim.Millisecond, 100*sim.Microsecond)
	if len(rs) != 5 {
		t.Fatalf("points = %d: %v", len(rs), rs)
	}
	if rs[0] != 600*sim.Microsecond || rs[4] != sim.Millisecond {
		t.Fatalf("bounds wrong: %v", rs)
	}
	if SweepResidencies(1, 0, 1) != nil {
		t.Fatal("inverted range produced points")
	}
	if SweepResidencies(0, 10, 0) != nil {
		t.Fatal("zero step produced points")
	}
}

func TestPaperSweepGrid(t *testing.T) {
	rs := PaperSweep()
	// 0.6 ms .. 1000.0 ms at 0.1 ms = 9995 points.
	if len(rs) != 9995 {
		t.Fatalf("paper grid = %d points, want 9995", len(rs))
	}
	if rs[0] != 600*sim.Microsecond || rs[len(rs)-1] != sim.Second {
		t.Fatalf("grid bounds: %v .. %v", rs[0], rs[len(rs)-1])
	}
}

func TestParseTrace(t *testing.T) {
	const trace = `active_ms,idle_ms,wake
# a comment line
150,30000,timer
0,5000,external
200.5,1000,thermal
`
	cycles, err := ParseTrace(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if len(cycles) != 3 {
		t.Fatalf("cycles = %d", len(cycles))
	}
	if cycles[0].Active != 150*sim.Millisecond || cycles[0].Idle != 30*sim.Second || cycles[0].Wake != WakeTimer {
		t.Fatalf("cycle 0 = %+v", cycles[0])
	}
	if cycles[1].Active != 0 || cycles[1].Wake != WakeExternal {
		t.Fatalf("cycle 1 = %+v", cycles[1])
	}
	if cycles[2].Wake != WakeThermal {
		t.Fatalf("cycle 2 = %+v", cycles[2])
	}
}

func TestParseTraceErrors(t *testing.T) {
	bad := []string{
		"",                 // empty
		"150,30000",        // missing field
		"abc,30000,timer",  // bad active
		"150,-5,timer",     // non-positive idle
		"150,0,timer",      // zero idle
		"150,30000,banana", // unknown wake
		"2,NaN,timer",      // non-finite idle
		"NaN,100,timer",    // non-finite active
		"2,Inf,timer",      // infinite idle
		"2,1e13,timer",     // idle overflows sim.Duration
	}
	for i, tr := range bad {
		if _, err := ParseTrace(strings.NewReader(tr)); err == nil {
			t.Errorf("bad trace %d accepted", i)
		}
	}
}

// TestParseTraceNamesLine: a rejected value names its trace line.
func TestParseTraceNamesLine(t *testing.T) {
	_, err := ParseTrace(strings.NewReader("150,30000,timer\n2,1e13,timer\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error %v, want one naming line 2", err)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	orig := []Cycle{
		{Active: 150 * sim.Millisecond, Idle: 30 * sim.Second, Wake: WakeTimer},
		{Active: 0, Idle: 5 * sim.Second, Wake: WakeExternal},
		{Active: 2 * sim.Millisecond, Idle: 600 * sim.Microsecond, Wake: WakeThermal},
	}
	var buf bytes.Buffer
	if err := FormatTrace(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(orig) {
		t.Fatalf("round trip %d cycles", len(back))
	}
	for i := range orig {
		if back[i].Wake != orig[i].Wake {
			t.Errorf("cycle %d wake mismatch", i)
		}
		// Millisecond formatting keeps microsecond precision.
		if d := back[i].Idle - orig[i].Idle; d > sim.Microsecond || d < -sim.Microsecond {
			t.Errorf("cycle %d idle drifted by %v", i, d)
		}
	}
}
