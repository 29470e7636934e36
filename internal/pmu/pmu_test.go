package pmu

import (
	"bytes"
	"testing"

	"odrips/internal/ctxstore"
	"odrips/internal/dram"
	"odrips/internal/ltr"
	"odrips/internal/mee"
	"odrips/internal/sim"
	"odrips/internal/sram"
)

func TestCStateTableShape(t *testing.T) {
	states := SkylakeCStates()
	c10 := states[len(states)-1]
	if c10.Name != "C10" {
		t.Fatalf("deepest = %s", c10.Name)
	}
	// Deeper states must cost more to enter and exit.
	for i := 1; i < len(states); i++ {
		if states[i].ExitLatency <= states[i-1].ExitLatency {
			t.Fatalf("%s exit latency not above %s", states[i].Name, states[i-1].Name)
		}
		if states[i].MinResidency <= states[i-1].MinResidency {
			t.Fatalf("%s min residency not above %s", states[i].Name, states[i-1].Name)
		}
	}
	// C10 exit is a few hundred microseconds (§3).
	if c10.ExitLatency < 100*sim.Microsecond || c10.ExitLatency > sim.Millisecond {
		t.Fatalf("C10 exit latency = %v", c10.ExitLatency)
	}
}

func TestSelectStateUnconstrained(t *testing.T) {
	s := sim.NewScheduler()
	st, err := SelectState(SkylakeCStates(), ltr.NewTable(s))
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "C10" {
		t.Fatalf("unconstrained selection = %s, want C10 (DRIPS)", st.Name)
	}
}

func TestSelectStateLTRConstrained(t *testing.T) {
	s := sim.NewScheduler()
	tbl := ltr.NewTable(s)
	// Audio can only tolerate 100 us of wake latency: C10 (300 us exit)
	// must be rejected; C7 (110 us) also; C6 (85 us) qualifies.
	tbl.Update("audio", 100*sim.Microsecond)
	st, err := SelectState(SkylakeCStates(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "C6" {
		t.Fatalf("LTR-constrained selection = %s, want C6", st.Name)
	}
}

func TestSelectStateTNTEConstrained(t *testing.T) {
	s := sim.NewScheduler()
	tbl := ltr.NewTable(s)
	// A timer fires in 1 ms: C10 (5 ms break-even) and C8 (2 ms) are not
	// worth entering; C7 (0.8 ms) is.
	if err := tbl.SetTimer("tick", s.Now().Add(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	st, err := SelectState(SkylakeCStates(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "C7" {
		t.Fatalf("TNTE-constrained selection = %s, want C7", st.Name)
	}
}

func TestSelectStateBothConstraints(t *testing.T) {
	s := sim.NewScheduler()
	tbl := ltr.NewTable(s)
	tbl.Update("nic", 50*sim.Microsecond) // allows up to C3 (40 us exit)
	if err := tbl.SetTimer("t", s.Now().Add(200*sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	// TNTE 200 us allows C3 (120 us break-even) but not C6.
	st, err := SelectState(SkylakeCStates(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "C3" {
		t.Fatalf("selection = %s, want C3", st.Name)
	}
}

func TestSelectStateHostileConstraints(t *testing.T) {
	s := sim.NewScheduler()
	tbl := ltr.NewTable(s)
	tbl.Update("dma", 0) // tolerates nothing
	st, err := SelectState(SkylakeCStates(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "C0" {
		t.Fatalf("zero-tolerance selection = %s, want C0", st.Name)
	}
}

func TestSelectStateEmptyTable(t *testing.T) {
	s := sim.NewScheduler()
	if _, err := SelectState(nil, ltr.NewTable(s)); err == nil {
		t.Fatal("empty C-state table accepted")
	}
}

func TestSRAMTargetRoundTrip(t *testing.T) {
	arr := sram.New("sa-sr", sram.ProcessorProcess, 128<<10)
	arr.SetState(sram.Active)
	tgt := NewSRAMTarget(arr)
	img := ctxstore.GenerateSkylake(1).Subset(ctxstore.SASectionNames()).Serialize()
	if err := tgt.Save(img); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, len(img))
	if err := tgt.RestoreInto(back); err != nil {
		t.Fatal(err)
	}
	if string(back) != string(img) {
		t.Fatal("SRAM round trip mismatch")
	}
	// On-chip save of ~117 KB should take single-digit microseconds.
	if lat := tgt.SaveLatency(len(img)); lat > 10*sim.Microsecond {
		t.Fatalf("SRAM save latency = %v", lat)
	}
}

func TestSRAMTargetOverflow(t *testing.T) {
	arr := sram.New("tiny", sram.ProcessorProcess, 64)
	arr.SetState(sram.Active)
	tgt := NewSRAMTarget(arr)
	if err := tgt.Save(make([]byte, 128)); err == nil {
		t.Fatal("oversized save accepted")
	}
}

func TestDRAMTargetLatenciesMatchPaper(t *testing.T) {
	mem := dram.New(dram.Skylake8GB())
	var key [32]byte
	key[0] = 9
	ctx := ctxstore.GenerateSkylake(2)
	img := ctx.Serialize()
	blocks := (len(img) + mee.BlockSize - 1) / mee.BlockSize
	f, err := mee.Format(0x1000_0000, blocks, key)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := mee.NewFormatted(mem, f, mee.DefaultCacheLines)
	if err != nil {
		t.Fatal(err)
	}
	tgt := &DRAMTarget{Engine: eng}
	saveLat, err := tgt.Save(img)
	if err != nil {
		t.Fatal(err)
	}
	// §6.3: ~18 us save for ~200 KB (95% estimation accuracy claimed).
	if us := saveLat.Microseconds(); us < 14 || us > 24 {
		t.Fatalf("DRAM context save latency = %.1f us, want ~18", us)
	}
	// Cold engine restore (as after DRIPS).
	cold, err := mee.ImportState(mem, eng.ExportState(), mee.DefaultCacheLines)
	if err != nil {
		t.Fatal(err)
	}
	coldTgt := &DRAMTarget{Engine: cold}
	back, restoreLat, err := coldTgt.RestoreInto(make([]byte, blocks*mee.BlockSize), len(img))
	if err != nil {
		t.Fatal(err)
	}
	if us := restoreLat.Microseconds(); us < 10 || us > 18 {
		t.Fatalf("DRAM context restore latency = %.1f us, want ~13", us)
	}
	if restoreLat >= saveLat {
		t.Fatal("restore not faster than save")
	}
	if !bytes.Equal(back, img) {
		t.Fatal("context mismatch after DRAM round trip")
	}
}

func TestBootFSMRoundTrip(t *testing.T) {
	arr := sram.New("boot", sram.ProcessorProcess, ctxstore.BootImageSize)
	arr.SetState(sram.Active)
	fsm := NewBootFSM(arr)
	img := ctxstore.BootImage{
		MEEState:  []byte{1, 2, 3},
		MCConfig:  make([]byte, 200),
		PMUVector: []byte{9},
	}
	if err := fsm.Save(img); err != nil {
		t.Fatal(err)
	}
	back, err := fsm.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if string(back.MEEState) != string(img.MEEState) || len(back.MCConfig) != 200 {
		t.Fatal("boot image mismatch")
	}
	if fsm.Latency() > 10*sim.Microsecond {
		t.Fatal("boot FSM latency implausible")
	}
}

func TestBootFSMPowerLoss(t *testing.T) {
	arr := sram.New("boot", sram.ProcessorProcess, ctxstore.BootImageSize)
	arr.SetState(sram.Active)
	fsm := NewBootFSM(arr)
	if err := fsm.Save(ctxstore.BootImage{MEEState: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	arr.SetState(sram.Off) // Boot SRAM must never be powered off in DRIPS
	arr.SetState(sram.Active)
	if _, err := fsm.Restore(); err == nil {
		t.Fatal("restore after Boot SRAM power loss succeeded")
	}
}
