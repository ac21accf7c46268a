package bench

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// Row is one line of an experiment table: a named, documented body that
// writes its report to w, reads its settings from p, and returns an error
// instead of exiting — so a row can run twice, or beside another, in one
// process, and a test can compare its bytes with a golden.
type Row[P any] struct {
	Name string
	Doc  string
	Run  func(w io.Writer, p P) error
}

// Params are cmd/vnbench's flags as the experiment rows read them.
type Params struct {
	Seed     int64  // simulation seed
	Shards   int    // engine shards; 0 = unset: simperf runs one, serve and tailat four
	Hosts    int    // simperf/serve/tailat cluster size; 0 = the golden sizes
	Scenario string // serve: "golden", "list", or one scenario name
	TraceOut string // breakdown/tailat: write a Perfetto trace to this file
	Metrics  bool   // breakdown: print the metrics-registry dashboards
}

// SoakParams are cmd/vnstress's flags as the soak rows read them.
type SoakParams struct {
	Seed      int64
	Nodes     int     // cluster size (shardsoak is fixed at 64 hosts)
	Duration  float64 // simulated seconds of load
	Drop      float64 // packet loss probability
	FaultPlan string  // mesh: scripted fault schedule (internal/fault syntax)
	Coll      bool    // mesh: soak the collective engine alongside
	Dash      bool    // mesh/serve: print the metrics dashboard every 100 ms
	Shards    int     // engine shards; 0 = unset: shardsoak runs two, serve one
}

// Experiments is the registration table of vnbench: one row per subcommand,
// in "vnbench all" order. A new experiment is a func(io.Writer, Params)
// error beside its harness in this package plus one line here; the CLI, its
// usage text and the golden tests pick it up from the table.
var Experiments = []Row[Params]{
	{"logp", "Fig. 3  LogP parameters, AM vs GAM", logpRow},
	{"bandwidth", "Fig. 4  transfer bandwidth vs message size", bandwidthRow},
	{"npb", "Fig. 5  NPB speedups on SP-2 / NOW / Origin 2000", npbRow},
	{"contention-small", "Fig. 6  small-message throughput under contention",
		func(w io.Writer, p Params) error { return contentionRow(w, p, 0) }},
	{"contention-bulk", "Fig. 7  8 KB bulk throughput under contention",
		func(w io.Writer, p Params) error { return contentionRow(w, p, 8192) }},
	{"linpack", "§6.2    Linpack GFLOPS on 100 nodes", linpackRow},
	{"timeshare", "§6.3    time-shared parallel applications", timeshareRow},
	{"overcommit", "§6.4.1  8:1 overcommit: remap rate, bimodal RTTs", overcommitRow},
	{"ablations", "§6.4.1  design-choice ablations", ablationsRow},
	{"sensitivity", "§6.1    LogP sensitivity: overhead vs gap", sensitivityRow},
	{"via", "§7      VIA per-pair VIs vs pooled endpoints on 8 NI frames", viaRow},
	{"extensions", "§8      adaptive retransmission timeouts, piggybacked acks", extensionsRow},
	{"migrate", "ext.    live endpoint migration: blackout, loss=0", migrateRow},
	{"faults", "ext.    fault injection + automated recovery", faultsRow},
	{"simperf", "ext.    event-engine self-benchmark", simPerfRow},
	{"allreduce", "ext.    collective algorithm sweep + SGD overlap", allreduceRow},
	{"breakdown", "§4      per-stage latency decomposition via tracing", breakdownRow},
	{"tenants", "ext.    multi-tenant metered WRR shares under overcommit", tenantsRow},
	{"serve", "ext.    serving-scale workloads: open-loop SLO curves", serveRow},
	{"tailat", "ext.    tail-latency attribution over request trace trees", tailatRow},
}

// Soaks is the registration table of vnstress. The first row is the default
// mode; each of the others is selected by the flag of its name, whose help
// text is "run " + Doc.
var Soaks = []Row[SoakParams]{
	{"mesh", "the mesh soak: random request/reply traffic under loss, endpoint churn, spine hot-swaps and live migration, with exactly-once/credit/liveness invariants", meshSoak},
	{"chaos", "the chaos soak: random fault schedule + idempotent RPC population with exactly-once/leak/trace invariants", chaosSoak},
	{"serve", "the serving soak: open-loop KV clients at 1.3x capacity + fault churn with exactly-once/no-hang/zero-leak invariants", serveSoak},
	{"shardsoak", "the sharded-engine soak: mixed local/cross-shard traffic + node-scoped fault churn on a sharded cluster", shardSoak},
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n==== %s ====\n", title)
}

// Profiled runs fn under the -cpuprofile/-memprofile plumbing both binaries
// share: a CPU profile covering fn when cpuprofile names a file, a heap
// profile taken after it when memprofile does.
func Profiled(cpuprofile, memprofile string, fn func() error) error {
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if err := fn(); err != nil || memprofile == "" {
		return err
	}
	f, err := os.Create(memprofile)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("memprofile: %w", err)
	}
	return f.Close()
}
