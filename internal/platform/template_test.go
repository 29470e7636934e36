package platform

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"odrips/internal/dram"
	"odrips/internal/faults"
	"odrips/internal/mee"
	"odrips/internal/sim"
	"odrips/internal/sram"
	"odrips/internal/workload"
)

// templateRun is everything a run exposes that construction could leak
// into: the MEE engine's format traffic, the result, the fast-forward
// counters, the engine's traffic and root after the run, and the
// protected region's bytes.
type templateRun struct {
	Built      mee.Stats
	Res        Result
	FF         FFStats
	MEE        mee.Stats
	Root       uint64
	Region     []byte
	RegionBase uint64
}

func runForTemplate(t *testing.T, p *Platform, mode FFMode, cycles []workload.Cycle) templateRun {
	t.Helper()
	var out templateRun
	if p.eng != nil {
		out.Built = p.eng.Stats()
		if md := p.eng.Layout().MetadataBytes() / mee.BlockSize; out.Built.MetaWrites != md {
			t.Errorf("%s: format wrote %d metadata blocks, the region has %d", p.cfg.Name(), out.Built.MetaWrites, md)
		}
	}
	if err := p.SetFastForward(mode); err != nil {
		t.Fatal(err)
	}
	res, err := p.RunCycles(cycles)
	if err != nil {
		t.Fatal(err)
	}
	out.Res, out.FF = res, p.FFStats()
	mem := p.Mem()
	if e := p.eng; e != nil {
		out.MEE, out.Root = e.Stats(), e.RootCounter()
	} else if e := p.ff.downEng; e != nil {
		out.MEE, out.Root = e.Stats(), e.RootCounter()
	}
	if r := p.CtxRegion(); r.Size > 0 {
		if out.Region, err = mem.Read(r.Base, int(r.Size)); err != nil {
			t.Fatal(err)
		}
		out.RegionBase = r.Base
	}
	return out
}

// templatePresets are the fleet presets that differ in what New builds
// from a template: the full ODRIPS platform, the baseline (no protected
// region) and the protected-DRAM context alone.
func templatePresets() map[string]Config {
	mk := func(tech Technique) Config {
		c := DefaultConfig()
		c.Techniques = tech
		return c
	}
	return map[string]Config{
		"odrips":       mk(ODRIPS),
		"baseline":     mk(0),
		"ctx-sgx-dram": mk(WakeUpOff | CtxSGXDRAM),
	}
}

// TestTemplatePlatformMatchesFresh: a platform assembled from a warm
// template — one that earlier platforms were already built from and ran
// on — is indistinguishable from a bare New: the same result, fast-forward
// counters, MEE traffic and protected-region bytes, in every
// preset, memory technology and fast-forward mode.
func TestTemplatePlatformMatchesFresh(t *testing.T) {
	ts := NewTemplates()
	warm, err := ts.New(ODRIPSConfig())
	if err != nil {
		t.Fatal(err)
	}
	cycles := workload.Fixed(8, 0, 30*sim.Second)
	if _, err := warm.RunCycles(cycles); err != nil {
		t.Fatal(err)
	}
	for name, base := range templatePresets() {
		for _, tech := range []dram.Technology{dram.DDR3L, dram.PCM} {
			for _, mode := range []FFMode{FFOff, FFOn, FFVerify} {
				cfg := base
				cfg.MainMemory = tech
				label := fmt.Sprintf("%s/%v/%v", name, tech, mode)
				fromTpl, err := ts.New(cfg)
				if err != nil {
					t.Fatalf("%s: Templates.New: %v", label, err)
				}
				fresh, err := New(cfg)
				if err != nil {
					t.Fatalf("%s: New: %v", label, err)
				}
				got := runForTemplate(t, fromTpl, mode, cycles)
				want := runForTemplate(t, fresh, mode, cycles)
				if cfg.Techniques.Has(CtxSGXDRAM) && len(want.Region) == 0 {
					t.Fatalf("%s: no protected region to compare", label)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: template platform diverged from New:\nformat %+v MEE %+v root %d region equal %v\nwant format %+v MEE %+v root %d\nFF %+v\nwant FF %+v",
						label, got.Built, got.MEE, got.Root, bytes.Equal(got.Region, want.Region),
						want.Built, want.MEE, want.Root, got.FF, want.FF)
				}
			}
		}
	}
	if st := ts.Stats(); st.Puts != 1 || st.Hits != 18 {
		t.Errorf("template cache: %d built, %d reused; want 1 and 18", st.Puts, st.Hits)
	}
}

// templateBytes copies everything a template shares with its platforms,
// the formatted MEE metadata as the bytes it writes into a fresh module.
func templateBytes(t *testing.T, tpl *template) [][]byte {
	t.Helper()
	f, err := tpl.formatted()
	if err != nil {
		t.Fatal(err)
	}
	mem := dram.New(dram.Skylake8GB())
	if _, err := mee.NewFormatted(mem, f, mee.DefaultCacheLines); err != nil {
		t.Fatal(err)
	}
	l := f.Layout()
	meta, err := mem.Read(l.Base+uint64(l.DataBlocks)*mee.BlockSize, int(l.MetadataBytes()))
	if err != nil {
		t.Fatal(err)
	}
	clone := func(b []byte) []byte { return append([]byte(nil), b...) }
	return [][]byte{clone(tpl.image), clone(tpl.hash[:]), clone(tpl.saImage), clone(tpl.cpImage),
		clone(tpl.pmuVec), clone(tpl.meeKey[:]), meta}
}

// TestTemplateSharedImmutable runs platforms of one template in several
// goroutines at once (run it under -race), with fault plans that flip
// protected DRAM bits, corrupt the stored image in DRAM and in eMRAM and
// degrade onto the retention SRAMs, and then scribbles over every memory
// each platform owns. The template's bytes must come through unchanged:
// platforms copy what they write, never write what they share.
func TestTemplateSharedImmutable(t *testing.T) {
	emram := ODRIPSConfig()
	emram.Techniques &^= CtxSGXDRAM
	emram.CtxInEMRAM = true
	runs := []struct {
		cfg  Config
		plan string
	}{
		{ODRIPSConfig(), "bitflip@1:12345;bitflip@2:999999"},
		{ODRIPSConfig(), "meefail@1:1"},
		{emram, "meefail@1:1"},
		{DefaultConfig(), ""},
		{templatePresets()["ctx-sgx-dram"], "bitflip@2:7"},
	}
	ts := NewTemplates()
	want := templateBytes(t, ts.get(DefaultConfig().Seed))

	var wg sync.WaitGroup
	errs := make(chan error, 2*len(runs))
	for i := 0; i < 2*len(runs); i++ {
		r := runs[i%len(runs)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- scribbleRun(ts, r.cfg, r.plan)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	got := templateBytes(t, ts.get(DefaultConfig().Seed))
	names := []string{"context image", "image hash", "SA image", "compute image", "PMU vector", "MEE key", "MEE metadata"}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("template %s changed under concurrent faulted platforms", names[i])
		}
	}
	if st := ts.Stats(); st.Puts != 1 {
		t.Errorf("template cache built %d templates for one seed, want 1", st.Puts)
	}
}

// scribbleRun runs one faulted platform of ts and then overwrites its
// SRAMs, its eMRAM copy and its protected region.
func scribbleRun(ts *Templates, cfg Config, plan string) error {
	p, err := ts.New(cfg)
	if err != nil {
		return err
	}
	fp, err := faults.Parse(plan)
	if err != nil {
		return err
	}
	if err := p.InjectFaults(fp); err != nil {
		return err
	}
	res, err := p.RunCycles(workload.Fixed(4, 0, 30*sim.Second))
	if err != nil {
		return fmt.Errorf("%s %q: %w", cfg.Name(), plan, err)
	}
	if fired := res.Faults.Fired; plan != "" && fired == 0 {
		return fmt.Errorf("%s %q: no injection fired", cfg.Name(), plan)
	}
	for _, arr := range []*sram.Array{p.saSRAM, p.computeSRAM} {
		arr.SetState(sram.Active)
		if err := arr.Write(0, bytes.Repeat([]byte{0xA5}, 4096)); err != nil {
			return err
		}
	}
	for i := range p.emram {
		p.emram[i] ^= 0xFF
	}
	mem := p.Mem()
	if r := p.CtxRegion(); r.Size > 0 {
		for off := uint64(0); off < r.Size; off += 97 {
			if err := mem.CorruptBit(r.Base+off, uint(off)); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestTemplatesBuildOncePerSeed: concurrent callers for one uncached
// seed wait for a single build and all get its template.
func TestTemplatesBuildOncePerSeed(t *testing.T) {
	ts := NewTemplates()
	const n = 8
	got := make([]*template, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = ts.get(7)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a template of its own; concurrent callers built the seed more than once", i)
		}
	}
	if st := ts.Stats(); st.Puts != 1 || st.Hits != n-1 {
		t.Errorf("template cache: %d built, %d reused; want 1 and %d", st.Puts, st.Hits, n-1)
	}
}
