package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"virtnet/internal/bench"
)

// tier1Goldens are the experiments cheap enough (0–9 s each, ≈ 34 s together
// on a 2-core box) to regenerate on every `go test ./...`. The other five
// (allreduce, serve, contention-small, contention-bulk, linpack) take up to a
// minute apiece and are diffed by one loop step in CI.
var tier1Goldens = map[string]bool{
	"logp": true, "bandwidth": true, "breakdown": true, "faults": true,
	"tenants": true, "migrate": true, "overcommit": true, "sensitivity": true,
	"timeshare": true, "simperf": true, "ablations": true, "degrade": true,
	"tailat": true, "npb": true, "via": true, "extensions": true,
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
		t.Skip("regenerates sixteen goldens (≈ 34 s)")
	}
	found := 0
	for _, ex := range bench.Experiments {
		if !tier1Goldens[ex.Name] {
			continue
		}
		found++
		t.Run(ex.Name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "results_"+ex.Name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			sameBytes(t, "results_"+ex.Name+".txt", runRow(t, ex.Name), want)
		})
	}
	if found != len(tier1Goldens) {
		t.Fatalf("%d of %d tier-1 goldens are in the experiments table", found, len(tier1Goldens))
	}
}

// repeats are the runs whose determinism has no golden to lean on: the
// sharded engine at scale, the -quick serving sweeps, and (traced) the two
// -traceout exports.
var repeats = []struct {
	name   string
	traced bool
	args   []string
}{
	{"simperf-1024-hosts-4-shards", false, []string{"-quick", "-shards", "4", "-hosts", "1024", "simperf"}},
	{"serve", false, []string{"-quick", "serve"}},
	{"tailat", true, []string{"-quick", "tailat"}},
	{"breakdown", true, []string{"breakdown"}},
}

// TestRepeatRuns runs each of repeats twice in this process and requires
// the same stdout and the same exported trace, byte for byte.
func TestRepeatRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four experiments twice (≈ 23 s)")
	}
	for _, r := range repeats {
		t.Run(r.name, func(t *testing.T) {
			once := func() (stdout, trace []byte) {
				if !r.traced {
					return runRow(t, r.args...), nil
				}
				file := filepath.Join(t.TempDir(), "trace.json")
				stdout = runRow(t, append([]string{"-traceout", file}, r.args...)...)
				trace, err := os.ReadFile(file)
				if err != nil || len(trace) == 0 {
					t.Fatalf("trace export: %d bytes, %v", len(trace), err)
				}
				return stdout, trace
			}
			out1, trace1 := once()
			out2, trace2 := once()
			sameBytes(t, "the first run's stdout", out2, out1)
			if !bytes.Equal(trace1, trace2) {
				t.Fatalf("trace exports differ between two runs (%d and %d bytes)", len(trace1), len(trace2))
			}
		})
	}
}

// TestRowsLeaveNoGoroutines covers the rest of the table: TestGoldens and
// TestRepeatRuns hold every row they run to runRow's goroutine balance, and
// this runs the rows neither of them reaches, at -quick, to the same
// standard. The exceptions take 4–18 s even at -quick, which tier-1 cannot
// afford for them: contention-small and contention-bulk (one body,
// contentionRow). The clusters they build belong to the contention harness,
// which shuts them down under defer and has tests of its own; CI's
// slow-golden loop runs both at full size.
func TestRowsLeaveNoGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two experiments at -quick (≈ 3 s)")
	}
	elsewhere := map[string]bool{"contention-small": true, "contention-bulk": true}
	for _, r := range repeats {
		elsewhere[r.args[len(r.args)-1]] = true // the row is the last argument
	}
	for _, ex := range bench.Experiments {
		if tier1Goldens[ex.Name] || elsewhere[ex.Name] {
			continue
		}
		t.Run(ex.Name, func(t *testing.T) {
			if out := runRow(t, "-quick", ex.Name); len(out) == 0 {
				t.Fatal("no output")
			}
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
		{"-quick migrate", "migrate", with(func(p *bench.Params) { p.Quick = true })},
		{"serve -scenario hotkey -shards 4", "serve", with(func(p *bench.Params) { p.Scenario, p.Shards = "hotkey", 4 })},
		{"-seed 7 simperf -hosts 64", "simperf", with(func(p *bench.Params) { p.Seed, p.Hosts = 7, 64 })},
		// No -sweep: no row measures host time (vnperf does).
		{"-seed 7 simperf -hosts 64 -sweep", "", def},
		// Used to run logp alone and exit 0: the re-parse dropped whatever
		// positional arguments followed the first.
		{"-quick logp bandwidth", "", def},
		{"logp -quick bandwidth", "", def},
		{"nosuch", "", def},
		{"logp -nosuchflag", "", def},
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
	if code := run([]string{"-quick", "logp", "bandwidth"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("vnbench -quick logp bandwidth: exit %d, want 2", code)
	}
}
