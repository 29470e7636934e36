// Package multirule is an odrips-vet test fixture for comma-separated
// allow directives: one directive suppressing two rules on one line, and
// per-rule unused detection when only half of a directive fires.
package multirule

import "time"

// bad trips walltime and maporder on the same line.
func bad(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v+int(time.Now().Unix())) // want maporder walltime
	}
	return out
}

// suppressed is the same shape with one directive covering both rules.
func suppressed(m map[string]int) []int {
	var out []int
	for _, v := range m {
		//odrips:allow maporder,walltime fixture: one directive suppresses two rules on the next line
		out = append(out, v+int(time.Now().Unix()))
	}
	return out
}

// partlyUsed names two rules but only walltime fires: the fpfloat half is
// dead and must be reported per-rule.
func partlyUsed() int64 {
	return time.Now().Unix() //odrips:allow walltime,fpfloat only walltime can fire here // want directive
}
