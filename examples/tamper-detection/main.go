// Tamper detection: the security story behind §6. ODRIPS parks the
// processor context — configuration registers, firmware patches, fuse
// values — in DRAM, which the paper's threat model treats as untrusted
// (cold-boot, bus snooping, RowHammer-class attacks). This example plays
// the attacker: it waits until the platform is asleep in ODRIPS, wakes the
// DRAM behind the platform's back, corrupts or rolls back the protected
// region, and shows the MEE refusing the restore on the next wake.
package main

import (
	"fmt"
	"log"

	"odrips"
	"odrips/internal/dram"
)

func attack(rt *odrips.Runtime, name string, corrupt func(p *odrips.Platform) error) {
	p, err := rt.NewPlatform(odrips.ODRIPSConfig())
	if err != nil {
		log.Fatal(err)
	}
	// Strike 10 s into the 30 s idle window.
	p.Scheduler().At(p.Scheduler().Now().Add(10*odrips.Second), "attack", func() {
		if err := corrupt(p); err != nil {
			log.Fatalf("%s: attack setup failed: %v", name, err)
		}
	})
	_, err = p.RunCycles(odrips.FixedCycles(1, 0, 30*odrips.Second))
	if err != nil {
		fmt.Printf("%-28s DETECTED: %v\n", name, err)
		return
	}
	fmt.Printf("%-28s !!! restore succeeded — protection failed\n", name)
}

func main() {
	rt, err := odrips.OpenRuntime("", "", odrips.FFOn, 0) // over ODRIPS_MEMOCACHE's store, if set
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Flush() // runs never write: what they discovered reaches the store here
	fmt.Println("attacker model: physical access to DRAM while the platform")
	fmt.Println("sleeps in ODRIPS (context parked in the SGX-protected region)")
	fmt.Println()

	// Attack 1: flip one ciphertext bit in the context region.
	attack(rt, "bit-flip in ciphertext", func(p *odrips.Platform) error {
		mem := p.Mem()
		if err := mem.SetState(dram.Active); err != nil {
			return err
		}
		addr := p.CtxRegion().Base + 17*dram.BlockSize
		blk, err := mem.Read(addr, dram.BlockSize)
		if err != nil {
			return err
		}
		blk[0] ^= 0x01
		if err := mem.Write(addr, blk); err != nil {
			return err
		}
		return mem.SetState(dram.SelfRefresh)
	})

	// Attack 2: corrupt counter-tree metadata instead of data.
	attack(rt, "metadata (counter tree)", func(p *odrips.Platform) error {
		mem := p.Mem()
		if err := mem.SetState(dram.Active); err != nil {
			return err
		}
		// Metadata sits above the data blocks inside the region.
		addr := p.CtxRegion().End() - 2*dram.BlockSize
		blk, err := mem.Read(addr, dram.BlockSize)
		if err != nil {
			return err
		}
		blk[33] ^= 0xFF
		if err := mem.Write(addr, blk); err != nil {
			return err
		}
		return mem.SetState(dram.SelfRefresh)
	})

	// Attack 3: wholesale region rollback — restore a complete, internally
	// consistent snapshot of data AND metadata captured earlier. Only the
	// on-chip root counter can catch this.
	attack(rt, "full-region rollback", func(p *odrips.Platform) error {
		mem := p.Mem()
		if err := mem.SetState(dram.Active); err != nil {
			return err
		}
		region := p.CtxRegion()
		snapshot, err := mem.Read(region.Base, int(region.Size))
		if err != nil {
			return err
		}
		// "Earlier snapshot": zero a version counter region to emulate the
		// state from before the most recent save. Any stale-but-consistent
		// image fails the same way: its top-node MAC was sealed under an
		// older on-chip root counter.
		for i := len(snapshot) - 4*dram.BlockSize; i < len(snapshot); i++ {
			snapshot[i] = 0
		}
		if err := mem.Write(region.Base, snapshot); err != nil {
			return err
		}
		return mem.SetState(dram.SelfRefresh)
	})

	fmt.Println()
	fmt.Println("a clean run for comparison:")
	p, err := rt.NewPlatform(odrips.ODRIPSConfig())
	if err != nil {
		log.Fatal(err)
	}
	res, err := p.RunCycles(odrips.FixedCycles(1, 0, 30*odrips.Second))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-28s context verified %d time(s), %.2f mW average\n",
		"no attack", res.CtxVerified, res.AvgPowerMW)
}
