// NVM futures: the paper's §8.3 exploration. What happens to connected-
// standby power when the processor context lives in on-chip eMRAM, or when
// main memory itself becomes non-volatile PCM and self-refresh disappears?
package main

import (
	"fmt"
	"log"

	"odrips"
	"odrips/internal/dram"
)

func main() {
	rt, err := odrips.OpenRuntime("", "", odrips.FFOn, 0) // over ODRIPS_MEMOCACHE's store, if set
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Flush() // runs never write: what they discovered reaches the store here
	wl := odrips.FixedCycles(3, 0, 30*odrips.Second)

	run := func(cfg odrips.Config) odrips.Result {
		p, err := rt.NewPlatform(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := p.RunCycles(wl)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	base := run(odrips.DefaultConfig())
	odripsRes := run(odrips.ODRIPSConfig())

	mramCfg := odrips.DefaultConfig().WithTechniques(odrips.WakeUpOff | odrips.AONIOGate)
	mramCfg.CtxInEMRAM = true
	mram := run(mramCfg)

	pcmCfg := odrips.ODRIPSConfig()
	pcmCfg.MainMemory = dram.PCM
	pcm := run(pcmCfg)

	fmt.Printf("%-14s %10s %11s %12s %12s %13s\n",
		"design", "avg power", "vs baseline", "idle power", "ctx save", "ctx restore")
	show := func(name string, r odrips.Result) {
		delta := "—"
		if r.AvgPowerMW != base.AvgPowerMW {
			delta = fmt.Sprintf("-%.1f%%", 100*(base.AvgPowerMW-r.AvgPowerMW)/base.AvgPowerMW)
		}
		fmt.Printf("%-14s %7.2f mW %11s %9.2f mW %12v %13v\n",
			name, r.AvgPowerMW, delta, r.IdlePowerMW(), r.CtxSave, r.CtxRestore)
	}
	show("Baseline", base)
	show("ODRIPS", odripsRes)
	show("ODRIPS-MRAM", mram)
	show("ODRIPS-PCM", pcm)

	fmt.Println()
	beO, err := odrips.BreakEven(base.CycleEnergy, odripsRes.CycleEnergy)
	if err != nil {
		log.Fatal(err)
	}
	beM, err := odrips.BreakEven(base.CycleEnergy, mram.CycleEnergy)
	if err != nil {
		log.Fatal(err)
	}
	beP, err := odrips.BreakEven(base.CycleEnergy, pcm.CycleEnergy)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("break-even residencies: ODRIPS %.1f ms, MRAM %.1f ms (lowest, §8.3), PCM %.1f ms\n",
		beO.Milliseconds(), beM.Milliseconds(), beP.Milliseconds())
	fmt.Println()
	fmt.Println("paper: ODRIPS-MRAM sits slightly below ODRIPS (context never")
	fmt.Println("leaves the die); ODRIPS-PCM cuts baseline average power ~37%")
	fmt.Println("because non-volatile main memory needs no self-refresh and no")
	fmt.Println("CKE drive — at the cost of ~5x slower context saves.")
}
