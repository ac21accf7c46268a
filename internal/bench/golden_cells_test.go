package bench

import (
	"bytes"
	"cmp"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// goldenCells are a sample of the slow rows' cells, run at golden size with
// vnbench's default flags through the same functions the rows call. Each
// prints lines of its row's committed golden, in the golden's order.
var goldenCells = []struct {
	row string
	run func(w io.Writer, p Params) error
}{
	{"allreduce", func(w io.Writer, p Params) error {
		allreduceHeader(w)
		for _, size := range []int{1 << 10, 32 << 10} {
			if err := allreduceSizeLine(w, size, p.Seed); err != nil {
				return err
			}
		}
		return allreduceSGD(w, p.Seed)
	}},
	// 12 clients is the first count at which ST-8 and MT-8 remap.
	{"contention-small", func(w io.Writer, p Params) error {
		agg, per := contentionLines(12, 0, p.Seed)
		_, err := io.WriteString(w, agg+per)
		return err
	}},
	// Every sweep's head, and four loads. No part of the gateway sweep: its
	// hedged-requests line comes from its last load.
	{"serve", func(w io.Writer, p Params) error {
		base, err := servePoint(p)
		if err != nil {
			return err
		}
		loads := map[string][]float64{"baseline": {0.25, 1.0}, "ablate": {3.0}, "ps": {1.0}}
		for _, sw := range serveSweeps() {
			serveSweepHead(w, sw.title)
			for _, f := range loads[cmp.Or(sw.name, sw.scn)] {
				if _, err := serveLoadLine(w, base, sw, f); err != nil {
					return err
				}
			}
		}
		return nil
	}},
}

// TestGoldenCells runs goldenCells and requires every line each prints to
// be a line of results_<row>.txt at the repository root, in the golden's
// order, and every cluster it builds to be shut down. With TestGoldens and
// TestRowsLeaveNoGoroutines in cmd/vnbench, which runs linpack's one 20 s
// cell whole, this checks all 20 goldens in tier-1.
func TestGoldenCells(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a sample of three slow goldens' cells (≈ 11 s)")
	}
	p := Params{Seed: 1, Scenario: "golden"}
	for _, c := range goldenCells {
		t.Run(c.row, func(t *testing.T) {
			name := "results_" + c.row + ".txt"
			golden, err := os.ReadFile(filepath.Join("..", "..", name))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			leavesNoGoroutines(t, func() { err = c.run(&out, p) })
			if err != nil {
				t.Fatal(err)
			}
			rest := strings.Split(string(golden), "\n")
			for _, line := range strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n") {
				at := slices.Index(rest, line)
				if at < 0 {
					t.Fatalf("not a line of %s, or out of its order:\n%s", name, line)
				}
				rest = rest[at+1:]
			}
		})
	}
}

// leavesNoGoroutines runs fn and fails t unless the goroutine count comes
// back to where it was: every cluster fn builds must be shut down, or a
// process that runs many (vnbench all, the tests) accumulates parked proc
// coroutines. cmd/vnbench's runRow holds whole rows to the same check.
func leavesNoGoroutines(t *testing.T, fn func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	fn()
	// Shutdown unwinds every proc before it returns, but a goroutine that
	// has finished leaves the count a moment after.
	for wait := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(wait); {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("leaked goroutines: %d before, %d after (a cluster without Shutdown?)", before, after)
	}
}
