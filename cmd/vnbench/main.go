// Command vnbench regenerates every table and figure of the paper's
// evaluation (§6) on the simulated cluster: `vnbench <experiment>` prints
// the rows or series the paper reports, `vnbench all` (the default) prints
// every one. The experiments are the rows of bench.Experiments; `vnbench -h`
// lists them with the flags.
//
// Flags may also follow the subcommand (`vnbench serve -scenario hotkey
// -shards 4`); everything after the first positional argument is re-parsed
// into the same flag set.
//
// Every row prints virtual-time results only, so with the default flags
// stdout is the golden results_<row>.txt and stderr stays empty unless a row
// fails; host time is measured by vnperf (benchmarks/).
// -cpuprofile/-memprofile write pprof profiles for diagnosing
// simulator-performance regressions. -traceout exports the breakdown
// experiment's short-AM phase (or tailat's last scenario) as Chrome
// trace-event JSON (load it at https://ui.perfetto.dev); -metrics prints the
// unified registry's dashboard after each of breakdown's ping-pong phases.
// -hosts and -shards below 0 are usage errors.
//
// This file is flag parsing, table lookup and the exit code; every
// experiment body lives in internal/bench.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"virtnet/internal/bench"
)

// options is a parsed command line.
type options struct {
	cmd                    string // an experiment name, or "all"
	p                      bench.Params
	cpuprofile, memprofile string
}

func listExperiments(w io.Writer) {
	for _, ex := range bench.Experiments {
		fmt.Fprintf(w, "  %-17s %s\n", ex.Name, ex.Doc)
	}
}

// flagSet is vnbench's command line: every flag, parsed into o.
func flagSet(o *options, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("vnbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Int64Var(&o.p.Seed, "seed", 1, "simulation seed")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&o.p.TraceOut, "traceout", "", "breakdown/tailat: write a Perfetto-compatible trace (breakdown's short-AM phase, tailat's last scenario) to this file")
	fs.BoolVar(&o.p.Metrics, "metrics", false, "breakdown: print the metrics-registry dashboard after each ping-pong phase")
	fs.IntVar(&o.p.Shards, "shards", 0, "simperf/serve/tailat: engine shards (unset: simperf runs one shard, no barriers; serve and tailat run 4)")
	fs.IntVar(&o.p.Hosts, "hosts", 0, "simperf/serve/tailat: cluster size override (0 = the golden sections)")
	fs.StringVar(&o.p.Scenario, "scenario", "golden", "serve: scenario to sweep ('golden' = the committed set, 'list' prints all)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: vnbench [flags] [experiment|all] [flags]\n\nexperiments, in the order \"all\" (the default) runs them:\n")
		listExperiments(stderr)
		fmt.Fprintf(stderr, "\nflags:\n")
		fs.PrintDefaults()
	}
	return fs
}

// parseArgs turns the arguments after the program name into options. What it
// rejects it reports on stderr, with the usage text, before returning the
// error.
func parseArgs(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flagSet(&o, stderr)
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.cmd = "all"
	if fs.NArg() > 0 {
		o.cmd = fs.Arg(0)
		// The flag package stops at the first positional argument, so
		// trailing flags (`vnbench serve -scenario hotkey`) need a second
		// parse into the same flag set.
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return o, err
		}
		if fs.NArg() > 0 {
			err := fmt.Errorf("unexpected argument %q after %q: one experiment (or \"all\") per run", fs.Arg(0), o.cmd)
			fmt.Fprintf(stderr, "vnbench: %v\n", err)
			fs.Usage()
			return o, err
		}
	}
	if o.p.Hosts < 0 || o.p.Shards < 0 {
		err := fmt.Errorf("-hosts %d, -shards %d: neither may be negative", o.p.Hosts, o.p.Shards)
		fmt.Fprintf(stderr, "vnbench: %v\n", err)
		fs.Usage()
		return o, err
	}
	known := func(ex bench.Row[bench.Params]) bool { return ex.Name == o.cmd }
	if o.cmd != "all" && !slices.ContainsFunc(bench.Experiments, known) {
		fmt.Fprintf(stderr, "unknown command %q; available:\n", o.cmd)
		listExperiments(stderr)
		return o, fmt.Errorf("unknown command %q", o.cmd)
	}
	return o, nil
}

// run is main without the process: it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}
	err = bench.Profiled(o.cpuprofile, o.memprofile, func() error {
		for _, ex := range bench.Experiments {
			if o.cmd != "all" && o.cmd != ex.Name {
				continue
			}
			if err := ex.Run(stdout, o.p); err != nil {
				return fmt.Errorf("%s: %w", ex.Name, err)
			}
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(stderr, "vnbench: %v\n", err)
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
