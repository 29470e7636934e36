package odrips

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLIs builds the named main packages (module-relative
// directories, such as cmd/odrips-sim) into a temporary directory and
// returns it; each binary is named after its directory's base name.
func buildCLIs(t *testing.T, pkgs ...string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the CLIs")
	}
	dir := t.TempDir()
	args := []string{"build", "-o", dir + string(os.PathSeparator)}
	for _, p := range pkgs {
		args = append(args, "./"+p)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir
}

// TestCLIFlagMisuseExits2: a flag value the run cannot honor exits 2
// naming the flag before anything runs, instead of panicking or
// silently running something else.
func TestCLIFlagMisuseExits2(t *testing.T) {
	bin := buildCLIs(t, "cmd/odrips-sim", "cmd/odrips-trace", "cmd/odrips-fleet")
	spec := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(spec, []byte(`{"devices":10}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cmd, flag, val string
		pre            []string // arguments before the flag
	}{
		{"odrips-sim", "-cycles", "-3", nil},
		{"odrips-sim", "-cycles", "0", nil},
		{"odrips-sim", "-idle", "-5s", nil},
		{"odrips-trace", "-idle", "-1s", nil},
		{"odrips-trace", "-idle", "0s", nil},
		{"odrips-trace", "-interval", "0s", nil},
		{"odrips-trace", "-interval", "-1ms", nil},
		{"odrips-sim", "-config", "bogus", nil},
		{"odrips-trace", "-config", "bogus", nil},
		{"odrips-fleet", "-preset", "bogus", nil},
		// The spec sets the preset and the fleet size.
		{"odrips-fleet", "-preset", "baseline", []string{"-spec", spec}},
		{"odrips-fleet", "-devices", "5", []string{"-spec", spec}},
	} {
		var stderr strings.Builder
		args := append(append([]string{}, c.pre...), c.flag, c.val)
		cmd := exec.Command(filepath.Join(bin, c.cmd), args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), c.flag) {
			t.Errorf("%s %s: %v, stderr %q; want exit 2 naming %s", c.cmd, strings.Join(args, " "), err, stderr.String(), c.flag)
		}
	}
}

// TestCLIsPersistCycleBundles: runs never write the store, so each CLI
// and example must flush its runtime's memo plane before it exits; a
// -memocache rw run of each (odrips-trace and the quickstart example,
// which have no store flags, under ODRIPS_MEMOCACHE=rw) leaves the cycle
// bundles it discovered on disk.
func TestCLIsPersistCycleBundles(t *testing.T) {
	bin := buildCLIs(t, "cmd/odrips-sim", "cmd/odrips-bench", "cmd/odrips-fleet", "cmd/odrips-trace", "examples/quickstart")
	for _, c := range []struct {
		args  []string
		flags bool // the store comes from -memocache flags, not the environment
	}{
		{[]string{"odrips-sim", "-cycles", "5"}, true},
		{[]string{"odrips-bench", "-exp", "fig6a"}, true},
		{[]string{"odrips-fleet", "-devices", "10"}, true},
		{[]string{"odrips-trace", "-out", os.DevNull}, false},
		{[]string{"quickstart"}, false},
	} {
		store := t.TempDir()
		cmd := exec.Command(filepath.Join(bin, c.args[0]), c.args[1:]...)
		if c.flags {
			cmd.Args = append(cmd.Args, "-memocache", "rw", "-memocachedir", store)
		} else {
			cmd.Env = append(os.Environ(), "ODRIPS_MEMOCACHE=rw", "ODRIPS_MEMOCACHE_DIR="+store)
		}
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%s: %v\n%s", strings.Join(cmd.Args, " "), err, out)
		}
		if got, _ := filepath.Glob(filepath.Join(store, "cycles-*.memo")); len(got) == 0 {
			t.Errorf("%s left no cycles-*.memo entry", strings.Join(c.args, " "))
		}
	}
}
