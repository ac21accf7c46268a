package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tier1Goldens are the experiments cheap enough (0–7 s each, ≈ 22 s together
// on a 2-core box) to regenerate on every `go test ./...`. The other seven
// (allreduce, serve, tailat, contention-small, contention-bulk, linpack, npb)
// take up to a minute apiece and are diffed by one loop step in CI.
var tier1Goldens = map[string]bool{
	"logp": true, "bandwidth": true, "breakdown": true, "faults": true,
	"tenants": true, "migrate": true, "overcommit": true, "sensitivity": true,
	"timeshare": true, "simperf": true, "ablations": true, "degrade": true,
}

// TestGoldens regenerates each tier-1 experiment the way `vnbench all` runs
// it — ex.run() in this process, default flags — and requires its stdout to
// be the committed results_<name>.txt byte for byte.
func TestGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates twelve goldens (≈ 22 s)")
	}
	found := 0
	for _, ex := range experiments {
		if !tier1Goldens[ex.name] {
			continue
		}
		found++
		t.Run(ex.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "results_"+ex.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			got := captureStdout(t, ex.run)
			if bytes.Equal(got, want) {
				return
			}
			gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("line %d differs from results_%s.txt:\n  golden: %s\n  got:    %s", i+1, ex.name, wl[i], gl[i])
				}
			}
			t.Fatalf("%d lines, results_%s.txt has %d", len(gl), ex.name, len(wl))
		})
	}
	if found != len(tier1Goldens) {
		t.Fatalf("%d of %d tier-1 goldens are in the experiments table", found, len(tier1Goldens))
	}
}

// captureStdout runs fn with os.Stdout pointed at a temp file and returns
// what it wrote. A file, not a pipe: nothing has to drain it while fn runs.
func captureStdout(t *testing.T, fn func()) []byte {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	fn()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}
