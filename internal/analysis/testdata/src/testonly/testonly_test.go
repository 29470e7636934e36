package testonly

import (
	"errors"
	"testing"
)

func TestNames(t *testing.T) {
	c := &Counter{}
	f := Fixture{Name: "f"}
	if Helper()+c.Peek()+Seeded() != 4 || f.Label() != "fixture f" || High.String() != "high" {
		t.Fatal("fixture arithmetic")
	}
	if err := run(); errors.Unwrap(err) == nil {
		t.Fatal("no wrapped error")
	}
}
