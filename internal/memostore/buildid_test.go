package memostore

import (
	"bytes"
	"crypto/sha256"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBuildFingerprintStable: the memoized fingerprint is nonzero, stable
// and equal to the uncached derivation over the test binary.
func TestBuildFingerprintStable(t *testing.T) {
	a, err := buildFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := buildFingerprint()
	if a != b || a == ([32]byte{}) {
		t.Fatalf("fingerprint unstable or zero: %x vs %x", a, b)
	}
	f, err := os.Open(os.Args[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if c, err := imageFingerprint(f); err != nil || c != a {
		t.Fatalf("uncached derivation of %s = %x (%v), memoized %x", os.Args[0], c, err, a)
	}
}

// TestImageFingerprintFallback: a file that is not ELF, or an ELF file
// whose note cannot be read, is fingerprinted by the SHA-256 of its
// bytes.
func TestImageFingerprintFallback(t *testing.T) {
	exe, err := os.ReadFile(os.Args[0])
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"script":        []byte("#!/bin/sh\necho not an image\n"),
		"empty":         nil,
		"truncated-elf": exe[:4096], // the ELF header, without section headers
	} {
		path := filepath.Join(t.TempDir(), name)
		writeT(t, path, data)
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := imageFingerprint(f)
		f.Close()
		if want := sha256.Sum256(data); err != nil || got != want {
			t.Errorf("%s: fingerprint %x (%v), want the file's SHA-256 %x", name, got, err, want)
		}
	}
}

func TestGoBuildIDShape(t *testing.T) {
	const part = "AKSJHeEAvpg3bWibQFus" // 20 base64url characters
	three := strings.Repeat(part+"/", 3)
	for id, want := range map[string]bool{
		three + part:                    true,
		three + "A_-9zZaz09AZ-_012345":  true,
		"":                              false,
		"foo":                           false,
		three[21:] + part:               false, // three parts
		three + three + part:            false,
		three + part[1:]:                false,
		three + part + "x":              false,
		three + "AKSJHeEA+pg3bWibQFus":  false, // std base64
		three + "AKSJHeEA=pg3bWibQFus":  false,
		three + "AKSJHeEAvpg3bWibQFu\n": false, // the decoder skips newlines
	} {
		if got := goBuildIDShape(id); got != want {
			t.Errorf("goBuildIDShape(%q) = %v, want %v", id, got, want)
		}
	}
}

// TestBuildIdentity builds testdata/probe several ways and compares the
// fingerprints their entries carry: identical builds share one, a
// changed build gets another, and builds without cmd/go's build ID fall
// back to the SHA-256 of their file, a namespace disjoint from every
// build-ID one.
func TestBuildIdentity(t *testing.T) {
	a1 := buildProbe(t, "")
	a2 := buildProbe(t, "")
	b := buildProbe(t, "-X main.variant=b")
	fpA, fpB := probeFingerprint(t, a1), probeFingerprint(t, b)
	if got := probeFingerprint(t, a2); got != fpA {
		t.Errorf("two identical builds wrote fingerprints %x and %x", fpA, got)
	}
	if fpB == fpA {
		t.Errorf("a -X main.variant=b build shares the plain build's fingerprint %x", fpA)
	}
	// The fingerprint is the tagged hash of the whole ID, as the
	// toolchain reads it.
	for bin, got := range map[string][32]byte{a1: fpA, b: fpB} {
		id := toolBuildID(t, bin)
		if want := sha256.Sum256([]byte(buildIDTag + id)); got != want {
			t.Errorf("%s (build ID %s): fingerprint %x, want SHA-256(tag + ID) %x", bin, id, got, want)
		}
	}
	for _, ldflags := range []string{"-buildid=", "-buildid=foo"} {
		bin := buildProbe(t, ldflags)
		got := probeFingerprint(t, bin)
		if want := sha256.Sum256(readT(t, bin)); got != want {
			t.Errorf("-ldflags=%s: fingerprint %x, want the file's SHA-256 %x", ldflags, got, want)
		}
		if got == fpA || got == fpB {
			t.Errorf("-ldflags=%s: fingerprint %x shares a build-ID namespace", ldflags, got)
		}
	}
}

// TestBuildFingerprintReplacedBinary: a process whose executable is
// replaced on disk between exec and its first Open still writes its own
// build's fingerprint, not the replacement's.
func TestBuildFingerprintReplacedBinary(t *testing.T) {
	a := buildProbe(t, "")
	b := buildProbe(t, "-X main.variant=b")
	want := probeFingerprint(t, a)

	dir := t.TempDir()
	cmd := probeCmd(a, dir, "-wait")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil { // returns once the image is exec'd
		t.Fatal(err)
	}
	if err := os.Rename(b, a); err != nil {
		stdin.Close()
		cmd.Wait()
		t.Fatal(err)
	}
	if _, err := io.WriteString(stdin, "go\n"); err != nil {
		t.Errorf("release the probe: %v", err)
	}
	stdin.Close()
	if err := cmd.Wait(); err != nil {
		t.Fatalf("probe: %v\n%s", err, stderr.Bytes())
	}
	if got := entryFingerprint(t, dir); got != want {
		t.Errorf("replaced probe wrote fingerprint %x, want its own build's %x", got, want)
	}
	if got := probeFingerprint(t, a); got == want {
		t.Fatalf("the replacement at %s writes the replaced build's fingerprint %x; the test replaced nothing", a, got)
	}
}

// buildProbe builds testdata/probe with the given -ldflags (none when
// empty) into a fresh directory and returns the binary's path.
func buildProbe(t *testing.T, ldflags string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the probe program")
	}
	bin := filepath.Join(t.TempDir(), "probe")
	args := []string{"build", "-o", bin}
	if ldflags != "" {
		args = append(args, "-ldflags="+ldflags)
	}
	args = append(args, "./testdata/probe")
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return bin
}

// probeCmd runs a probe binary over the store dir; the environment's
// default store stays off so the probe fingerprints only at its Open.
func probeCmd(bin, dir string, args ...string) *exec.Cmd {
	cmd := exec.Command(bin, append([]string{dir}, args...)...)
	cmd.Env = append(os.Environ(), "ODRIPS_MEMOCACHE=off")
	return cmd
}

// probeFingerprint runs a probe over a fresh store and returns the build
// fingerprint of the entry it wrote.
func probeFingerprint(t *testing.T, bin string) [32]byte {
	t.Helper()
	dir := t.TempDir()
	if out, err := probeCmd(bin, dir).CombinedOutput(); err != nil {
		t.Fatalf("%s: %v\n%s", bin, err, out)
	}
	return entryFingerprint(t, dir)
}

// entryFingerprint reads the build fingerprint (bytes 12–44) of the one
// entry in the store dir.
func entryFingerprint(t *testing.T, dir string) [32]byte {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.memo"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("store %s holds entries %v (%v), want one", dir, matches, err)
	}
	data := readT(t, matches[0])
	var fp [32]byte
	if len(data) < headerLen {
		t.Fatalf("entry %s is %d bytes", matches[0], len(data))
	}
	copy(fp[:], data[len(magic)+4:])
	return fp
}

// toolBuildID reads a binary's build ID with the toolchain's own reader.
func toolBuildID(t *testing.T, bin string) string {
	t.Helper()
	out, err := exec.Command("go", "tool", "buildid", bin).Output()
	if err != nil {
		t.Fatalf("go tool buildid %s: %v", bin, err)
	}
	return strings.TrimSpace(string(out))
}
