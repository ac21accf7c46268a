// Command vnstress soak-tests the virtual network stack under adversarial
// conditions and verifies the system's core invariants at the end of each
// run. The soaks are the rows of bench.Soaks: the mesh soak runs by default
// (random request/reply traffic across an endpoint mesh under packet loss,
// endpoint churn, spine hot-swaps, live migration and overcommitted NI
// frames; -faultplan adds a scripted fault schedule, -coll an mpi world
// running allreduce rounds, -dash a metrics dashboard every 100 ms of
// simulated time), and -chaos, -serve or -shardsoak selects one of the
// others. On any exactly-once / credit-conservation / leak / liveness
// breakage it prints `vnstress: INVARIANT VIOLATION: ...` and exits 1.
//
// Usage: vnstress [-seed N] [-nodes N] [-duration D-sim-seconds] [-drop P]
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the soak run
// for engine performance work.
//
// This file is flag parsing, table lookup and the exit code; every soak
// body and invariant lives in internal/bench.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"virtnet/internal/bench"
)

// options is a parsed command line.
type options struct {
	soak                   bench.Row[bench.SoakParams]
	p                      bench.SoakParams
	cpuprofile, memprofile string
}

// flagSet is vnstress's command line: every flag, parsed into o, and in
// selected[i] whether the flag of Soaks[i] (i > 0) was given.
func flagSet(o *options, selected []bool, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("vnstress", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Int64Var(&o.p.Seed, "seed", 1, "simulation seed")
	fs.IntVar(&o.p.Nodes, "nodes", 12, "cluster size")
	fs.Float64Var(&o.p.Duration, "duration", 2.0, "simulated seconds of load")
	fs.Float64Var(&o.p.Drop, "drop", 0.02, "packet loss probability")
	fs.StringVar(&o.p.FaultPlan, "faultplan", "", "scripted fault schedule (internal/fault syntax), e.g. link:3-7@0.2s+0.5s,crash:node9@1s")
	fs.BoolVar(&o.p.Coll, "coll", false, "soak the collective engine with continuous allreduce rounds")
	fs.BoolVar(&o.p.Dash, "dash", false, "print the unified metrics dashboard every 100 ms of simulated time")
	fs.IntVar(&o.p.Shards, "shards", 0, "engine shards for -shardsoak and -serve (1 = one shard, no barriers; unset: -shardsoak runs 2, -serve runs 1)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	// Every soak but the default is selected by the flag of its name.
	for i, s := range bench.Soaks[1:] {
		fs.BoolVar(&selected[i+1], s.Name, false, "run "+s.Doc)
	}
	return fs
}

// parseArgs turns the arguments after the program name into options. What it
// rejects it reports on stderr, with the usage text, before returning the
// error.
func parseArgs(args []string, stderr io.Writer) (options, error) {
	o := options{soak: bench.Soaks[0]}
	selected := make([]bool, len(bench.Soaks))
	fs := flagSet(&o, selected, stderr)
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	reject := func(err error) (options, error) {
		fmt.Fprintf(stderr, "vnstress: %v\n", err)
		fs.Usage()
		return o, err
	}
	if fs.NArg() > 0 {
		return reject(fmt.Errorf("unexpected argument %q: vnstress takes flags only", fs.Arg(0)))
	}
	chosen := ""
	for i, s := range bench.Soaks {
		if !selected[i] {
			continue
		}
		if chosen != "" {
			return reject(fmt.Errorf("-%s and -%s are different soaks: choose one per run", chosen, s.Name))
		}
		chosen, o.soak = s.Name, s
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
	err = bench.Profiled(o.cpuprofile, o.memprofile, func() error { return o.soak.Run(stdout, o.p) })
	if err != nil {
		fmt.Fprintf(stderr, "vnstress: %v\n", err)
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
