// Package directive is an odrips-vet test fixture for the //odrips:allow
// machinery itself: malformed, unknown-rule, and unused directives are all
// findings, so the exception list stays audited. The expected findings for
// this package are asserted explicitly in analysis_test.go (they cannot be
// annotated in-line without confusing the directives under test).
package directive

//odrips:allow

//odrips:allow fpfloat

//odrips:allow nosuchrule because the rule name is made up

//odrips:allow walltime this one is well-formed but suppresses nothing

// clean exists so the package has code.
func clean() int { return 1 }
