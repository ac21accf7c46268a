// Command vnperf is the repository's performance benchmark: four workloads
// driven through the layers' public functions, nine end-to-end metrics in
// host time and virtual time, and per-layer attribution taken from outside
// the program. benchmarks/README.md explains the workloads and the metrics;
// BENCHMARK.json at the root of the repository is the contract.
//
//	go run ./benchmarks/vnperf -workload all
//	go run ./benchmarks/vnperf -workload serve-kv -seed 7 -trace 1 -trace-out /tmp/kv.json
//	go run ./benchmarks/vnperf -aa 2
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload    string
	seed        int64
	seconds     float64
	trace       int
	traceOut    string
	aa          int
	toy         bool
	breakLedger bool
}

func realMain(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("vnperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: am-stream, overcommit-cs, scale-1024, serve-kv or all")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: feeds placement, think times, keys and arrival streams")
	fs.Float64Var(&o.seconds, "seconds", 25, "how long to measure, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 = the traced run, which prints the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the harness spans to this file as Chrome trace-event JSON")
	fs.IntVar(&o.aa, "aa", 0, "run the whole workload set this many times and print the spread between sets against each bound")
	fs.BoolVar(&o.toy, "toy", false, "shrink every workload to a smoke-test size (what the unit tests run)")
	fs.BoolVar(&o.breakLedger, "break-ledger", false, "corrupt the exactly-once ledger, to show that the correctness gate trips")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "vnperf: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	// Run conditions are fixed here, not inherited: two threads (one on a
	// single-CPU machine), because cross-thread goroutine hand-off is a
	// first-order cost and the same work runs ~30% faster on one.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	switch {
	case o.aa > 0:
		return aaMode(o, stdout, stderr)
	case o.workload == "all":
		code := 0
		for _, w := range workloads {
			if _, c := runChild(o, w.name, stdout, stderr); c != 0 {
				code = c
			}
		}
		return code
	}
	w := workloadByName(o.workload)
	if w == nil {
		fmt.Fprintf(stderr, "vnperf: unknown workload %q\n", o.workload)
		return 2
	}
	fmt.Fprintln(stdout, machineTag())
	fmt.Fprintf(stdout, "workload %s (%s) seed=%d shards=%d\n", w.name, w.loop, o.seed, w.shards)
	cfg := runCfg{seed: o.seed, toy: o.toy, breakLedger: o.breakLedger}
	var res result
	var err error
	if o.trace != 0 {
		res, err = tracedMode(w, cfg, o, stdout)
	} else {
		res, err = e2eMode(w, cfg, o.seconds, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "vnperf: %v\n", err)
		return 1
	}
	for _, g := range res.gate {
		fmt.Fprintf(stderr, "CORRECTNESS: %s\n", g)
	}
	line, err := json.Marshal(res.report())
	if err != nil {
		fmt.Fprintf(stderr, "vnperf: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if len(res.gate) > 0 {
		return 1
	}
	return 0
}

// result is one invocation's outcome, in the shape of its last output line.
type result struct {
	attempted, broken int64
	gate              []string
	metrics           map[string]reportMetric
}

type reportMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]reportMetric `json:"metrics"`
}

func (r result) report() report {
	return report{Correct: len(r.gate) == 0, Attempted: r.attempted, Failed: r.broken, Metrics: r.metrics}
}

// machineTag names what the host-time numbers were measured on.
func machineTag() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("machine: nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu, runtime.Version(), commit)
}

// Setup sampling: setup_s is not taken from the repetitions' own setups. A
// 16-node cluster is built in a third of a millisecond, and the median of a
// few such timings is not steady, so setup alone is repeated: each sample
// builds and wires enough clusters back to back to take about setupSampleTime
// (tearing each down outside the clock) and is their mean; samples are taken
// until there are setupSamples of them or a twelfth of the measuring time has
// passed, and at least three.
const (
	setupSamples    = 40
	setupSampleTime = 20 * time.Millisecond
)

// e2eMode measures the end-to-end metrics: one discarded warm-up repetition,
// then timed repetitions for about the given number of seconds, each on a
// fresh cluster built from the same seed.
func e2eMode(w *workloadDef, cfg runCfg, seconds float64, out io.Writer) (result, error) {
	res := result{metrics: map[string]reportMetric{}}
	warm, err := runRep(w, cfg, nil)
	if err != nil {
		return res, err
	}
	digest := warm.digest
	for _, g := range warm.out.gate {
		res.gate = append(res.gate, "warm-up: "+g)
	}

	samples := map[string][]float64{}
	builds := min(200, max(1, int(setupSampleTime.Seconds()/warm.setupS)))
	budget := time.Duration(seconds * float64(time.Second))
	for t0 := time.Now(); len(samples["setup_s"]) < 3 || (len(samples["setup_s"]) < setupSamples && time.Since(t0) < budget/12); {
		runtime.GC()
		var spent time.Duration
		for i := 0; i < builds; i++ {
			s0 := time.Now()
			j, err := w.setup(cfg)
			if err != nil {
				return res, err
			}
			spent += time.Since(s0)
			j.cluster().Shutdown()
		}
		samples["setup_s"] = append(samples["setup_s"], spent.Seconds()/float64(builds))
	}

	var latSamples int
	for t0 := time.Now(); ; {
		r, err := runRep(w, cfg, nil)
		if err != nil {
			return res, err
		}
		n := len(samples["wall_ns_per_op"]) + 1
		for _, g := range r.out.gate {
			res.gate = append(res.gate, fmt.Sprintf("repetition %d: %s", n, g))
		}
		if r.digest != digest {
			res.gate = append(res.gate, fmt.Sprintf("repetition %d: virt_digest %016x differs from the warm-up's %016x", n, r.digest, digest))
		}
		res.attempted += r.out.attempted
		res.broken += r.out.broken
		latSamples = len(r.out.lat)
		for k, v := range r.e2e() {
			samples[k] = append(samples[k], v)
		}
		// Stop when the next repetition would end further from the time
		// asked for than this one did.
		elapsed := time.Since(t0)
		if n >= 3 && elapsed+elapsed/time.Duration(2*n) > budget {
			break
		}
	}
	fmt.Fprintf(out, "repetitions: %d timed + 1 warm-up, %d latency samples each\n", len(samples["wall_ns_per_op"]), latSamples)
	for _, m := range endToEnd {
		s := summarize(samples[m.name])
		value, reported := s.Median, "median"
		if m.fastest {
			value, reported = s.Min, "min"
		}
		res.metrics[m.name] = reportMetric{Value: value, Unit: m.unit}
		fmt.Fprintf(out, "  %-16s %-8s median %-14.6g q1 %-14.6g q3 %-14.6g min %-14.6g n=%-3d reports the %s\n",
			m.name, m.unit, s.Median, s.Q1, s.Q3, s.Min, s.N, reported)
	}
	fmt.Fprintf(out, "virt_digest %s seed=%d %016x\n", w.name, cfg.seed, digest)
	return res, nil
}

// tracedMode runs the traced run and prints every per-layer metric.
func tracedMode(w *workloadDef, cfg runCfg, o options, out io.Writer) (result, error) {
	res := result{metrics: map[string]reportMetric{}}
	tr, err := runTraced(w, cfg, o.seconds, o.traceOut, out)
	if err != nil {
		return res, err
	}
	res.attempted, res.broken, res.gate = tr.attempted, tr.broken, tr.gate
	layer := ""
	for _, m := range perLayer {
		if l := m.layer(); l != layer {
			layer = l
			fmt.Fprintf(out, "%s:\n", layer)
		}
		v := tr.metrics[m.name]
		res.metrics[m.name] = reportMetric{Value: v, Unit: m.unit}
		fmt.Fprintf(out, "  %-32s %-6s %s %-14.6g -> %s\n", m.name, m.unit, m.source, v, m.moves)
	}
	fmt.Fprintf(out, "virt_digest %s seed=%d %016x\n", w.name, cfg.seed, tr.digest)
	return res, nil
}

// childResult is what the parent of a per-workload process reads back.
type childResult struct {
	report report
	digest string
}

// runChild runs one workload in a process of its own, so that peak RSS, the
// heap and the goroutine count are that workload's alone. The child's output
// is passed through; its last line and its digest line are parsed.
func runChild(o options, workload string, stdout, stderr io.Writer) (childResult, int) {
	var cr childResult
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "vnperf: %v\n", err)
		return cr, 1
	}
	args := []string{"-workload", workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace)}
	if o.toy {
		args = append(args, "-toy")
	}
	if o.breakLedger {
		args = append(args, "-break-ledger")
	}
	if o.traceOut != "" {
		args = append(args, "-trace-out", o.traceOut+"."+workload)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		fmt.Fprintf(stderr, "vnperf: %v\n", err)
		return cr, 1
	}
	if err := cmd.Start(); err != nil {
		fmt.Fprintf(stderr, "vnperf: %v\n", err)
		return cr, 1
	}
	var last string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		last = sc.Text()
		fmt.Fprintln(stdout, last)
		if f := strings.Fields(last); len(f) == 4 && f[0] == "virt_digest" {
			cr.digest = f[3]
		}
	}
	code := 0
	if err := cmd.Wait(); err != nil {
		code = 1
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		}
	}
	if err := json.Unmarshal([]byte(last), &cr.report); err != nil && code == 0 {
		fmt.Fprintf(stderr, "vnperf: %s: last line is not a result: %v\n", workload, err)
		code = 1
	}
	return cr, code
}

// aaMode runs the whole workload set o.aa times back to back on the same
// code and seed, and compares every workload × end-to-end metric between
// sets with the metric's bound. Host-time metrics may differ by less than
// their bound; virtual-time metrics and the digest must agree exactly.
func aaMode(o options, stdout, stderr io.Writer) int {
	o.trace = 0
	type set map[string]childResult
	var sets []set
	code := 0
	for i := 0; i < o.aa; i++ {
		fmt.Fprintf(stdout, "==== set %d of %d ====\n", i+1, o.aa)
		s := set{}
		for _, w := range workloads {
			cr, c := runChild(o, w.name, stdout, stderr)
			if c != 0 {
				code = c
			}
			s[w.name] = cr
		}
		sets = append(sets, s)
	}
	exact := map[string]bool{"ok_frac": true, "virt_ops_per_s": true, "virt_p50_us": true, "virt_p99_us": true}
	fmt.Fprintf(stdout, "==== A/A: largest spread between %d sets, against each bound ====\n", o.aa)
	for _, w := range workloads {
		for _, m := range endToEnd {
			worst := 0.0
			for i := range sets {
				for j := i + 1; j < len(sets); j++ {
					a, b := sets[i][w.name].report.Metrics[m.name].Value, sets[j][w.name].report.Metrics[m.name].Value
					worst = max(worst, relSpread(a, b))
				}
			}
			limit, mark := m.bound, ""
			if exact[m.name] {
				limit = 0
			}
			if worst > limit {
				mark = "  <-- OUTSIDE"
				code = 1
			}
			fmt.Fprintf(stdout, "  %-14s %-16s spread %7.3f%%  bound %5.1f%%%s\n", w.name, m.name, 100*worst, 100*limit, mark)
		}
		for i := 1; i < len(sets); i++ {
			if a, b := sets[0][w.name].digest, sets[i][w.name].digest; a != b {
				fmt.Fprintf(stdout, "  %-14s virt_digest differs: %s vs %s  <-- OUTSIDE\n", w.name, a, b)
				code = 1
			}
		}
	}
	return code
}
