// Package walltime is an odrips-vet test fixture: wall-clock and global
// math/rand use inside internal/*.
package walltime

import (
	"math/rand"
	"time"
)

// bad reads host time and the global generator.
func bad() int {
	_ = time.Now()                             // want walltime
	time.Sleep(time.Second)                    // want walltime
	if c := time.Tick(time.Minute); c != nil { // want walltime
		<-c
	}
	return rand.Intn(4) // want walltime
}

// good keeps to types, constants, and seeded generators.
func good() *rand.Rand {
	const warm = 3 * time.Second // the Duration type and constants are fine
	_ = warm
	var d time.Duration
	_ = d
	return rand.New(rand.NewSource(42))
}

// allowed shows the audited escape hatch.
func allowed() time.Time {
	return time.Now() //odrips:allow walltime fixture exercises the allow path
}
