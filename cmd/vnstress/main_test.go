package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"virtnet/internal/bench"
)

// soakRuns are the soak invocations tier-1 holds to a committed transcript
// (testdata/<name>.txt: what the run printed at the last commit that meant
// to change it). After a change that moves one on purpose, regenerate it
// with `go run ./cmd/vnstress <args> > cmd/vnstress/testdata/<name>.txt`.
// The rows marked twice run a second time in the same process, which must
// print the same bytes: one single-shard soak and one 4-shard soak.
var soakRuns = []struct {
	name  string
	twice bool
	args  string
}{
	{"mesh", false, "-seed 7 -duration 0.5"},
	{"mesh_lossless", false, "-seed 7 -duration 0.3 -drop 0"},
	{"mesh_faultplan", false, "-seed 7 -duration 0.5 -faultplan spine:0@0.1s+0.2s,burst:all@0.15s+0.3s:0.2,crash:node9@0.3s"},
	{"mesh_coll_crash", false, "-seed 7 -duration 0.5 -coll -faultplan crash:node9@0.3s"},
	{"chaos", true, "-chaos -seed 7 -duration 0.5"},
	{"serve", false, "-serve -seed 1 -duration 0.3"},
	{"serve_4shard", false, "-serve -shards 4 -nodes 32 -seed 1 -duration 0.2"},
	{"shardsoak_4shard", true, "-shardsoak -shards 4 -seed 5 -duration 0.2"},
	{"shardsoak_1shard", false, "-shardsoak -shards 1 -seed 5 -duration 0.2"},
}

// flagRuns give -dash and the profile flags a tier-1 run each. The
// transcript must be a line subsequence of what the run prints, with at
// least one panel between its lines: the dashboard is observability-only and
// moves nothing the soak reports. With no panel the run must print the
// transcript exactly.
var flagRuns = []struct {
	name, args, transcript, panel string
}{
	{"mesh_dash", "-seed 7 -duration 0.5 -dash", "mesh", "== metrics @"},
	{"serve_dash", "-serve -seed 1 -duration 0.3 -dash", "serve", "[serve.tailat]"},
	{"profiles", "-seed 7 -duration 0.3 -drop 0 -cpuprofile DIR/cpu.prof -memprofile DIR/mem.prof", "mesh_lossless", ""},
}

// runSoak runs `vnstress args` in this process and returns its stdout. An
// argument that starts with "DIR/" names a file in a fresh temporary
// directory, which the run must leave non-empty. It requires exit 0 — every
// invariant held — and that the run left the goroutine count where it found
// it.
func runSoak(t *testing.T, args string) []byte {
	t.Helper()
	argv := strings.Fields(args)
	var written []string
	for i, a := range argv {
		if name, ok := strings.CutPrefix(a, "DIR/"); ok {
			argv[i] = filepath.Join(t.TempDir(), name)
			written = append(written, argv[i])
		}
	}
	before := runtime.NumGoroutine()
	var stdout, stderr bytes.Buffer
	if code := run(argv, &stdout, &stderr); code != 0 {
		t.Fatalf("vnstress %s: exit %d\n%s", args, code, stderr.Bytes())
	}
	for _, f := range written {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("vnstress %s: %s is missing or empty (%v)", args, filepath.Base(f), err)
		}
	}
	// Shutdown unwinds every proc before it returns, but a goroutine that
	// has finished leaves the count a moment after.
	for wait := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(wait); {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("vnstress %s leaked goroutines: %d before, %d after", args, before, after)
	}
	return stdout.Bytes()
}

// TestSoaks runs every soak at CI's settings, through the argument parser,
// and compares what it prints with its transcript byte for byte. CI runs
// this test under the race detector as well: procs of different shards run
// on different goroutines, and the transcript cannot see what they share.
func TestSoaks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs nine soaks (≈ 10 s)")
	}
	for _, r := range soakRuns {
		t.Run(r.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", r.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			runs := 1
			if r.twice {
				runs = 2
			}
			for n := 1; n <= runs; n++ {
				if got := runSoak(t, r.args); !bytes.Equal(got, want) {
					t.Fatalf("run %d of vnstress %s departs from testdata/%s.txt:\n--- want\n%s--- got\n%s",
						n, r.args, r.name, want, got)
				}
			}
		})
	}
}

// TestFlagRuns runs each of flagRuns and checks its output against its
// transcript.
func TestFlagRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three soaks (≈ 3 s)")
	}
	for _, r := range flagRuns {
		t.Run(r.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", r.transcript+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			got := runSoak(t, r.args)
			if r.panel == "" {
				if !bytes.Equal(got, want) {
					t.Fatalf("vnstress %s departs from testdata/%s.txt:\n--- want\n%s--- got\n%s", r.args, r.transcript, want, got)
				}
				return
			}
			if !bytes.Contains(got, []byte(r.panel)) {
				t.Fatalf("vnstress %s printed no %q panel", r.args, r.panel)
			}
			rest := strings.Split(string(got), "\n")
			for i, line := range strings.Split(string(want), "\n") {
				at := slices.Index(rest, line)
				if at < 0 {
					t.Fatalf("vnstress %s: line %d of testdata/%s.txt is missing, or out of order: %s", r.args, i+1, r.transcript, line)
				}
				rest = rest[at+1:]
			}
		})
	}
}

// TestEveryFlagIsRun holds every flag of vnstress to a tier-1 run: each must
// be set by some entry of soakRuns or flagRuns (TestParseArgs only parses).
// A flag that no run sets is an option nothing exercises, and goes.
func TestEveryFlagIsRun(t *testing.T) {
	var runs []string
	for _, r := range soakRuns {
		runs = append(runs, r.args)
	}
	for _, r := range flagRuns {
		runs = append(runs, r.args)
	}
	set := map[string]bool{}
	for _, args := range runs {
		for _, a := range strings.Fields(args) {
			if name, ok := strings.CutPrefix(a, "-"); ok {
				name, _, _ = strings.Cut(strings.TrimPrefix(name, "-"), "=")
				set[name] = true
			}
		}
	}
	flagSet(new(options), make([]bool, len(bench.Soaks)), io.Discard).VisitAll(func(f *flag.Flag) {
		if !set[f.Name] {
			t.Errorf("no tier-1 run sets -%s: give it one in soakRuns or flagRuns, or delete it", f.Name)
		}
	})
}

func TestParseArgs(t *testing.T) {
	def := bench.SoakParams{Seed: 1, Nodes: 12, Duration: 2.0, Drop: 0.02}
	with := func(edit func(*bench.SoakParams)) bench.SoakParams {
		p := def
		edit(&p)
		return p
	}
	for _, c := range []struct {
		args string
		soak string // "" = a usage error
		p    bench.SoakParams
	}{
		{"", "mesh", def},
		{"-seed 2 -drop 0.05", "mesh", with(func(p *bench.SoakParams) { p.Seed, p.Drop = 2, 0.05 })},
		{"-chaos -duration 0.5", "chaos", with(func(p *bench.SoakParams) { p.Duration = 0.5 })},
		{"-serve -shards 4 -nodes 32 -dash", "serve", with(func(p *bench.SoakParams) { p.Shards, p.Nodes, p.Dash = 4, 32, true })},
		{"-shardsoak", "shardsoak", def},
		// Used to run the shard soak and say nothing about -chaos: main took
		// the first mode it tested for.
		{"-chaos -shardsoak", "", def},
		{"-serve -chaos", "", def},
		{"chaos", "", def},
		{"-nosuchflag", "", def},
		// The mesh soak always churns, swaps and migrates.
		{"-churn=false", "", def},
	} {
		var stderr bytes.Buffer
		o, err := parseArgs(strings.Fields(c.args), &stderr)
		switch {
		case c.soak == "" && err == nil:
			t.Errorf("vnstress %s: accepted as the %s soak, want a usage error", c.args, o.soak.Name)
		case c.soak == "" && stderr.Len() == 0:
			t.Errorf("vnstress %s: rejected (%v) without a word on stderr", c.args, err)
		case c.soak != "" && (err != nil || o.soak.Name != c.soak || !reflect.DeepEqual(o.p, c.p)):
			t.Errorf("vnstress %s: parsed as %s %+v (err %v), want %s %+v", c.args, o.soak.Name, o.p, err, c.soak, c.p)
		}
	}
	var stdout bytes.Buffer
	for _, args := range [][]string{{"-chaos", "-shardsoak"}, {"-churn=false"}} {
		stdout.Reset()
		if code := run(args, &stdout, io.Discard); code != 2 || stdout.Len() != 0 {
			t.Errorf("vnstress %s: exit %d and %d bytes of stdout, want 2 and none", strings.Join(args, " "), code, stdout.Len())
		}
	}
}
