// Package fpfloat is an odrips-vet test fixture: fixedpoint Float() flowing
// outside the diagnostics contexts.
package fpfloat

import (
	"fmt"

	"odrips/internal/fixedpoint"
)

// bad lets a float rendering of an exact fixed-point value escape into
// state.
func bad(q fixedpoint.Q) float64 {
	x := q.Float() // want fpfloat
	return x
}

// good stays in integer space.
func good(q fixedpoint.Q) uint64 {
	return q.Integer() + q.Frac()
}

// formatted uses the blessed fmt call-site path.
func formatted(q fixedpoint.Q) string {
	return fmt.Sprintf("step=%.9f", q.Float())
}

// allowed shows the audited escape hatch.
func allowed(q fixedpoint.Q) float64 {
	return q.Float() //odrips:allow fpfloat fixture exercises the allow path
}
