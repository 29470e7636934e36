// Package testonly is an odrips-vet test fixture: exported names whose
// only references sit in testonly_test.go, beside names program code (run,
// below) reaches by name, through an instantiation or through an
// interface.
package testonly

import (
	"errors"
	"fmt"
)

// Helper is called only by the tests.
func Helper() int { return 1 } // want testonly

// Counter is built by run.
type Counter struct{ n int }

// Peek is a method only the tests call.
func (c *Counter) Peek() int { return c.n } // want testonly

// Fixture is a type only the tests and its own method name.
type Fixture struct{ Name string } // want testonly

// Label is a test-only method whose receiver names Fixture; that is not
// a caller of Fixture.
func (f Fixture) Label() string { return "fixture " + f.Name } // want testonly

// Used is called by program code.
func Used() int { return 2 }

// Box is generic; run reaches it only through Box[int].
type Box[T any] struct{ v T }

// Unbox is called on a Box[int], which counts for the generic method.
func (b *Box[T]) Unbox() T { return b.v }

// WrapError is an error that wraps another.
type WrapError struct{ Err error }

func (e *WrapError) Error() string { return "wrap: " + e.Err.Error() }

// Unwrap satisfies the interface errors.Is and errors.As look for; no
// program code calls it by name.
func (e *WrapError) Unwrap() error { return e.Err }

// Level is printed through fmt.Stringer.
type Level int

// The constants are out of scope: deleting an iota member renumbers its
// siblings.
const (
	Low Level = iota
	High
)

// String satisfies fmt.Stringer; no program code calls it by name.
func (l Level) String() string {
	if l == High {
		return "high"
	}
	return "low"
}

// Seeded is test-only on purpose.
//
//odrips:allow testonly fixture exercises the allow path
func Seeded() int { return 3 }

func run() error {
	c := &Counter{}
	b := &Box[int]{v: c.n + Used()}
	fmt.Println(b.Unbox(), Low)
	return &WrapError{Err: errors.New("x")}
}
