package device

import (
	"testing"

	"odrips/internal/ltr"
	"odrips/internal/sim"
)

// fakeHost is a controllable Platform.
type fakeHost struct {
	active bool
	wakes  int
}

func (h *fakeHost) Active() bool { return h.active }
func (h *fakeHost) Wake()        { h.wakes++ }

func bench(t *testing.T) (*sim.Scheduler, *ltr.Table, *fakeHost) {
	t.Helper()
	s := sim.NewScheduler()
	return s, ltr.NewTable(s), &fakeHost{}
}

func TestNICConfigValidation(t *testing.T) {
	s, tbl, h := bench(t)
	bad := []NICConfig{
		{RateKBps: 0, PacketBytes: 1500, BufferBytes: 64 << 10},
		{RateKBps: 100, PacketBytes: 0, BufferBytes: 64 << 10},
		{RateKBps: 100, PacketBytes: 1500, BufferBytes: 100},
	}
	for i, cfg := range bad {
		if _, err := NewNIC(s, tbl, h, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNICDrainsWhileHostActive(t *testing.T) {
	s, tbl, h := bench(t)
	h.active = true
	n, err := NewNIC(s, tbl, h, NICConfig{RateKBps: 1000, PacketBytes: 1500, BufferBytes: 64 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	s.RunFor(sim.Second)
	n.Stop()
	packets, wakes, overflows := n.Stats()
	if packets == 0 {
		t.Fatal("no packets arrived")
	}
	if wakes != 0 || overflows != 0 || n.buffered != 0 {
		t.Fatalf("active host: wakes=%d overflows=%d buffered=%d", wakes, overflows, n.buffered)
	}
}

func TestNICBuffersAndWakesWhileHostSleeps(t *testing.T) {
	s, tbl, h := bench(t)
	h.active = false
	// 64 KiB buffer at 100 KB/s fills its 75% high-water in ~0.5 s.
	n, err := NewNIC(s, tbl, h, NICConfig{RateKBps: 100, PacketBytes: 1500, BufferBytes: 64 << 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	s.RunFor(400 * sim.Millisecond)
	if h.wakes != 0 {
		t.Fatalf("woke after 0.4s with a ~0.5s high-water: buffered=%d", n.buffered)
	}
	s.RunFor(sim.Second)
	if h.wakes == 0 {
		t.Fatal("never woke the host")
	}
	n.Stop()
}

func TestNICLTRTracksHeadroom(t *testing.T) {
	s, tbl, h := bench(t)
	h.active = false
	n, err := NewNIC(s, tbl, h, NICConfig{RateKBps: 100, PacketBytes: 1500, BufferBytes: 64 << 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tol0, ok := tbl.MinTolerance()
	if !ok {
		t.Fatal("no LTR report at creation")
	}
	// Full buffer headroom at 100 KB/s: 65536/100000 s = ~655 ms.
	if tol0 < 600*sim.Millisecond || tol0 > 700*sim.Millisecond {
		t.Fatalf("initial tolerance = %v", tol0)
	}
	n.Start()
	s.RunFor(300 * sim.Millisecond)
	tol1, _ := tbl.MinTolerance()
	if tol1 >= tol0 {
		t.Fatalf("tolerance did not shrink as the buffer filled: %v -> %v", tol0, tol1)
	}
	n.Stop()
	if _, ok := tbl.MinTolerance(); ok {
		t.Fatal("LTR report not removed on Stop")
	}
}

func TestNICOverflowAccounting(t *testing.T) {
	s, tbl, h := bench(t)
	h.active = false
	// High-water at 100%: the host is never woken (h ignores), so the
	// buffer must saturate and count drops.
	n, err := NewNIC(s, tbl, h, NICConfig{
		RateKBps: 1000, PacketBytes: 1500, BufferBytes: 16 << 10,
		HighWaterFraction: 1.0, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	s.RunFor(sim.Second)
	n.Stop()
	_, _, overflows := n.Stats()
	if overflows == 0 {
		t.Fatal("saturated buffer counted no overflows")
	}
	if n.buffered > 16<<10 {
		t.Fatal("buffer exceeded capacity")
	}
}

func TestAudioStreamLTR(t *testing.T) {
	s, tbl, _ := bench(t)
	_ = s
	StartAudioStream(tbl, 2*sim.Millisecond)
	tol, ok := tbl.MinTolerance()
	if !ok || tol != 2*sim.Millisecond {
		t.Fatalf("tolerance = %v,%v", tol, ok)
	}
}
