// Command probe opens a memo store and saves one entry, so a test can
// read the build fingerprint a binary writes (entry bytes 12–44).
//
//	probe <store dir> [-wait]
//
// With -wait it reads one line from stdin before opening the store, so a
// test can replace the binary on disk while the process runs. Builds
// that set -ldflags=-X main.variant=... differ in content.
package main

import (
	"bufio"
	"fmt"
	"os"

	"odrips/internal/memostore"
)

var variant = "a"

func main() {
	if len(os.Args) > 2 && os.Args[2] == "-wait" {
		if _, err := bufio.NewReader(os.Stdin).ReadString('\n'); err != nil {
			fmt.Fprintln(os.Stderr, "probe:", err)
			os.Exit(1)
		}
	}
	s, err := memostore.Open(os.Args[1], memostore.RW)
	if err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
	s.Save("probe", []byte("probe"), []byte(variant))
	if st := s.Stats(); st.Writes != 1 {
		fmt.Fprintf(os.Stderr, "probe: %d writes, %d write errors\n", st.Writes, st.WriteErrors)
		os.Exit(1)
	}
}
