package mee_test

import (
	"bytes"
	"fmt"
	"log"

	"odrips/internal/dram"
	"odrips/internal/mee"
)

// Example walks the §6.2 context path: encrypt the processor context into
// a protected DRAM region, power-cycle through self-refresh with only the
// sealed engine state surviving (the Boot SRAM payload), and restore with
// verification — then show an attacker's bit flip being refused.
func Example() {
	mem := dram.New(dram.Skylake8GB())
	var key [32]byte
	key[0] = 0x42

	formatted, err := mee.Format(0x1000_0000, 64, key) // shareable by any number of modules
	if err != nil {
		log.Fatal(err)
	}
	eng, err := mee.NewFormatted(mem, formatted, mee.DefaultCacheLines)
	if err != nil {
		log.Fatal(err)
	}
	context := bytes.Repeat([]byte("processor-context!"), 256)[:64*mee.BlockSize]
	if err := eng.WriteRegion(context); err != nil {
		log.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		log.Fatal(err)
	}
	sealed := eng.ExportState() // lives in the Boot SRAM across DRIPS
	fmt.Printf("sealed engine state: %d bytes\n", len(sealed))

	// DRIPS: DRAM self-refreshes, the engine powers off.
	if err := mem.SetState(dram.SelfRefresh); err != nil {
		log.Fatal(err)
	}
	if err := mem.SetState(dram.Active); err != nil {
		log.Fatal(err)
	}

	cold, err := mee.ImportState(mem, sealed, mee.DefaultCacheLines)
	if err != nil {
		log.Fatal(err)
	}
	back, err := cold.ReadRegion(len(context))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("context restored intact: %v\n", bytes.Equal(back, context))

	// An attacker flips one ciphertext bit; the next restore fails.
	blk, _ := mem.Read(0x1000_0000, mee.BlockSize)
	blk[3] ^= 1
	if err := mem.Write(0x1000_0000, blk); err != nil {
		log.Fatal(err)
	}
	_, err = cold.ReadRegion(len(context))
	fmt.Printf("tamper detected: %v\n", err != nil)
	// Output:
	// sealed engine state: 96 bytes
	// context restored intact: true
	// tamper detected: true
}
