package main

import (
	"bytes"
	"flag"
	"io"
	"maps"
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

// tier1Goldens are the experiments cheap enough (0–11 s each, ≈ 40 s together
// on a 2-core box) to regenerate on every `go test ./...`. The other four
// (allreduce, serve, contention-small, linpack) take up to a minute apiece.
// The first three are sweeps of independent cells, and TestGoldenCells in
// internal/bench checks a sample of their cells against these goldens;
// linpack is one cell, which TestRowsLeaveNoGoroutines runs whole. CI's
// slow-golden step diffs all four whole.
var tier1Goldens = map[string]bool{
	"logp": true, "bandwidth": true, "breakdown": true, "faults": true,
	"tenants": true, "migrate": true, "overcommit": true, "sensitivity": true,
	"timeshare": true, "simperf": true, "ablations": true, "degrade": true,
	"tailat": true, "npb": true, "via": true, "extensions": true,
	"contention-bulk": true,
}

// runRow runs `vnbench args...` in this process and returns its stdout. It
// requires exit 0 with nothing on stderr, and that the run left the goroutine
// count where it found it: every cluster a row builds must be shut down, or a
// process that runs the table (vnbench all, these tests) accumulates parked
// proc coroutines.
func runRow(t *testing.T, args ...string) []byte {
	t.Helper()
	before := runtime.NumGoroutine()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("vnbench %s: exit %d\n%s", strings.Join(args, " "), code, stderr.Bytes())
	}
	// Shutdown unwinds every proc before it returns, but a goroutine that
	// has finished leaves the count a moment after.
	for wait := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(wait); {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("vnbench %s leaked goroutines: %d before, %d after (a cluster without Shutdown?)",
			strings.Join(args, " "), before, after)
	}
	return stdout.Bytes()
}

// sameBytes fails t at the first line where got departs from want.
func sameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from %s:\n  want: %s\n  got:  %s", i+1, what, wl[i], gl[i])
		}
	}
	t.Fatalf("%d lines, %s has %d", len(gl), what, len(wl))
}

// TestGoldens regenerates each tier-1 experiment the way `vnbench <name>`
// runs it — default flags, through the argument parser — and requires its
// stdout to be the committed results_<name>.txt byte for byte.
func TestGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates seventeen goldens (≈ 40 s)")
	}
	found := 0
	for _, ex := range bench.Experiments {
		if !tier1Goldens[ex.Name] {
			continue
		}
		found++
		t.Run(ex.Name, func(t *testing.T) {
			name := "results_" + ex.Name + ".txt"
			sameBytes(t, name, runRow(t, ex.Name), golden(t, name))
		})
	}
	if found != len(tier1Goldens) {
		t.Fatalf("%d of %d tier-1 goldens are in the experiments table", found, len(tier1Goldens))
	}
}

// runIn runs `vnbench args...` through runRow with every argument that
// starts with "DIR/" moved into a fresh temporary directory, and returns
// its stdout and, by name, the files it wrote there, none of them empty.
func runIn(t *testing.T, args []string) (stdout []byte, files map[string][]byte) {
	t.Helper()
	dir := t.TempDir()
	args = slices.Clone(args)
	for i, a := range args {
		if name, ok := strings.CutPrefix(a, "DIR/"); ok {
			args[i] = filepath.Join(dir, name)
		}
	}
	stdout = runRow(t, args...)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files = map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil || len(b) == 0 {
			t.Fatalf("vnbench %s: %s has %d bytes, %v", strings.Join(args, " "), e.Name(), len(b), err)
		}
		files[e.Name()] = b
	}
	return stdout, files
}

// repeats are the runs whose determinism has no golden to lean on: the
// sharded engine at scale, a serving sweep and the tail attribution at a
// custom size, and the two -traceout exports.
var repeats = []struct {
	name string
	args []string
}{
	{"simperf-1024-hosts-4-shards", []string{"-shards", "4", "-hosts", "1024", "simperf"}},
	{"serve-hotkey", []string{"-scenario", "hotkey", "-hosts", "32", "-shards", "2", "serve"}},
	{"tailat", []string{"-seed", "7", "-hosts", "32", "-shards", "2", "-traceout", "DIR/trace.json", "tailat"}},
	{"breakdown", []string{"-traceout", "DIR/trace.json", "breakdown"}},
}

// TestRepeatRuns runs each of repeats twice in this process and requires
// the same stdout and the same exported files, byte for byte.
func TestRepeatRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four experiments twice (≈ 20 s)")
	}
	for _, r := range repeats {
		t.Run(r.name, func(t *testing.T) {
			out1, files1 := runIn(t, r.args)
			out2, files2 := runIn(t, r.args)
			sameBytes(t, "the first run's stdout", out2, out1)
			if !reflect.DeepEqual(files1, files2) {
				t.Fatalf("the files the two runs wrote differ")
			}
		})
	}
}

// flagRuns give each flag that no golden or repeat needs a run of its own,
// with a check of what the flag adds to the row it runs.
var flagRuns = []struct {
	name  string
	args  []string
	check func(t *testing.T, stdout []byte, files map[string][]byte)
}{
	{"scenario-list", []string{"-scenario", "list", "serve"}, func(t *testing.T, stdout []byte, _ map[string][]byte) {
		var names []string
		for _, line := range strings.Split(strings.TrimSpace(string(stdout)), "\n") {
			names = append(names, strings.Fields(line)[0])
		}
		want := "baseline hotkey incast faultchurn elephant straggler mmpp diurnal interference gateway ps"
		if got := strings.Join(names, " "); got != want {
			t.Fatalf("scenarios %q, want %q", got, want)
		}
	}},
	{"metrics", []string{"-metrics", "breakdown"}, func(t *testing.T, stdout []byte, _ map[string][]byte) {
		linesWithin(t, "results_breakdown.txt", stdout)
		if n := strings.Count(string(stdout), "== metrics @"); n != 2 {
			t.Fatalf("%d metrics dashboards, want one per ping-pong phase (2)", n)
		}
	}},
	{"profiles", []string{"-cpuprofile", "DIR/cpu.prof", "-memprofile", "DIR/mem.prof", "logp"}, func(t *testing.T, stdout []byte, files map[string][]byte) {
		sameBytes(t, "results_logp.txt", stdout, golden(t, "results_logp.txt"))
		if len(files) != 2 {
			t.Fatalf("wrote %d profiles, want 2", len(files))
		}
	}},
}

// TestFlagRuns runs each of flagRuns and applies its check.
func TestFlagRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three experiments (≈ 3 s)")
	}
	for _, r := range flagRuns {
		t.Run(r.name, func(t *testing.T) {
			stdout, files := runIn(t, r.args)
			r.check(t, stdout, files)
		})
	}
}

// linesWithin fails t unless the lines of the committed golden appear in got
// in order, whatever got prints between them.
func linesWithin(t *testing.T, name string, got []byte) {
	t.Helper()
	rest := strings.Split(string(got), "\n")
	for i, line := range strings.Split(string(golden(t, name)), "\n") {
		at := slices.Index(rest, line)
		if at < 0 {
			t.Fatalf("line %d of %s is missing, or out of order: %s", i+1, name, line)
		}
		rest = rest[at+1:]
	}
}

// golden returns the committed file name at the repository root.
func golden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEveryFlagIsRun holds every flag of vnbench to a tier-1 run: each must
// be set by some entry of repeats or flagRuns (the goldens set none, and
// TestParseArgs only parses). A flag that no run sets is an option nothing
// exercises, and goes.
func TestEveryFlagIsRun(t *testing.T) {
	var runs [][]string
	for _, r := range repeats {
		runs = append(runs, r.args)
	}
	for _, r := range flagRuns {
		runs = append(runs, r.args)
	}
	set := map[string]bool{}
	for _, args := range runs {
		for _, a := range args {
			if name, ok := strings.CutPrefix(a, "-"); ok {
				name, _, _ = strings.Cut(strings.TrimPrefix(name, "-"), "=")
				set[name] = true
			}
		}
	}
	flagSet(new(options), io.Discard).VisitAll(func(f *flag.Flag) {
		if !set[f.Name] {
			t.Errorf("no tier-1 run sets -%s: give it one in repeats or flagRuns, or delete it", f.Name)
		}
	})
}

// sampledGoldens are the slow rows whose goldens TestGoldenCells in
// internal/bench checks by a sample of their cells, each held to runRow's
// goroutine balance.
var sampledGoldens = map[string]bool{"allreduce": true, "contention-small": true, "serve": true}

// TestRowsLeaveNoGoroutines covers the rest of the table: every row that
// neither TestGoldens, TestRepeatRuns nor TestGoldenCells reaches runs whole
// here, through runRow, and must print its committed golden byte for byte.
// That is linpack alone, one cell of about 20 s on a 2-core box.
func TestRowsLeaveNoGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs linpack whole (≈ 20 s)")
	}
	elsewhere := maps.Clone(sampledGoldens)
	for _, r := range repeats {
		elsewhere[r.args[len(r.args)-1]] = true // the row is the last argument
	}
	for _, ex := range bench.Experiments {
		if tier1Goldens[ex.Name] || elsewhere[ex.Name] {
			continue
		}
		t.Run(ex.Name, func(t *testing.T) {
			name := "results_" + ex.Name + ".txt"
			sameBytes(t, name, runRow(t, ex.Name), golden(t, name))
		})
	}
}

func TestParseArgs(t *testing.T) {
	def := bench.Params{Seed: 1, Scenario: "golden"}
	with := func(edit func(*bench.Params)) bench.Params {
		p := def
		edit(&p)
		return p
	}
	for _, c := range []struct {
		args string
		cmd  string // "" = a usage error
		p    bench.Params
	}{
		{"", "all", def},
		{"-metrics breakdown", "breakdown", with(func(p *bench.Params) { p.Metrics = true })},
		{"serve -scenario hotkey -shards 4", "serve", with(func(p *bench.Params) { p.Scenario, p.Shards = "hotkey", 4 })},
		{"-seed 7 simperf -hosts 64", "simperf", with(func(p *bench.Params) { p.Seed, p.Hosts = 7, 64 })},
		// No -sweep: no row measures host time (vnperf does).
		{"-seed 7 simperf -hosts 64 -sweep", "", def},
		// Used to run logp alone and exit 0: the re-parse dropped whatever
		// positional arguments followed the first.
		{"-metrics logp bandwidth", "", def},
		{"logp -metrics bandwidth", "", def},
		{"nosuch", "", def},
		{"logp -nosuchflag", "", def},
		// Used to panic in makeslice.
		{"-hosts -8 simperf", "", def},
		{"simperf -shards -1", "", def},
		{"-hosts 0 -shards 0 simperf", "simperf", def},
	} {
		var stderr bytes.Buffer
		o, err := parseArgs(strings.Fields(c.args), &stderr)
		switch {
		case c.cmd == "" && err == nil:
			t.Errorf("vnbench %s: accepted as %q, want a usage error", c.args, o.cmd)
		case c.cmd == "" && stderr.Len() == 0:
			t.Errorf("vnbench %s: rejected (%v) without a word on stderr", c.args, err)
		case c.cmd != "" && (err != nil || o.cmd != c.cmd || !reflect.DeepEqual(o.p, c.p)):
			t.Errorf("vnbench %s: parsed as %q %+v (err %v), want %q %+v", c.args, o.cmd, o.p, err, c.cmd, c.p)
		}
	}
	for _, args := range [][]string{{"-metrics", "logp", "bandwidth"}, {"-hosts", "-8", "simperf"}} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("vnbench %s: exit %d, want 2", strings.Join(args, " "), code)
		}
	}
	// A row that cannot size its run fails before it prints: each of these
	// used to print part of a table first, and the last exited 0 after
	// printing fired=0 (NaN/msg).
	for _, args := range [][]string{
		{"-hosts", "4", "serve"}, {"-scenario", "nosuch", "serve"}, {"-hosts", "1", "tailat"}, {"-hosts", "1", "simperf"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 1 || stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("vnbench %s: exit %d, %d bytes on stdout, stderr %q; want exit 1, stdout empty and the error on stderr",
				strings.Join(args, " "), code, stdout.Len(), stderr.String())
		}
	}
}
