package virtnet

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// exampleClosings pins the last line each program under examples/ prints.
// The examples are the README's front door; they are seeded simulations, so
// the line is the same on every run, and a library change that moves one is
// a change to what the README promises.
var exampleClosings = map[string]string{
	"batch":        "5 jobs completed; cluster utilization 90%",
	"clientserver": "endpoint re-mappings performed by the OS: 131",
	"parallelsort": "globally sorted 32768 keys across 8 ranks",
	"quickstart":   "done at t=1.000s; all 4 nodes completed 3 ring round trips",
	"rpcservice":   "kv service handled 6 calls over virtual networks",
	"timeshare":    "both applications shared 4 nodes; sequential lower bound 125.000ms, actual 134.000ms",
}

// TestExamples builds every example program and runs it to exit 0 and its
// pinned closing line. An exampleClosings key with no examples/<name>
// directory fails too: the pin outlived its program.
func TestExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the example programs (≈ 5 s)")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH to build the examples with")
	}
	dirs, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for name := range exampleClosings {
		if _, err := os.Stat(filepath.Join("examples", name)); err != nil {
			t.Errorf("exampleClosings has %q but there is no examples/%s: %v", name, name, err)
		}
	}
	bin := t.TempDir()
	if out, err := exec.Command(goBin, "build", "-o", bin+string(filepath.Separator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, d := range dirs {
		name := d.Name()
		t.Run(name, func(t *testing.T) {
			want, ok := exampleClosings[name]
			if !ok {
				t.Fatalf("examples/%s has no closing line in exampleClosings", name)
			}
			out, err := exec.Command(filepath.Join(bin, name)).CombinedOutput()
			if err != nil {
				t.Fatalf("examples/%s: %v\n%s", name, err, out)
			}
			lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
			if got := lines[len(lines)-1]; got != want {
				t.Fatalf("examples/%s closes with\n  %s\nwant\n  %s", name, got, want)
			}
		})
	}
}
