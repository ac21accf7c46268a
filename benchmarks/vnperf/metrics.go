package main

import "strings"

// The metric catalogue. BENCHMARK.json at the root of the repository lists
// the same names, units and directions (a test keeps the two in step); the
// extra columns here — which layer a metric belongs to, where its number
// comes from and what it is expected to move — are what benchmarks/README.md
// tabulates.

// Source kinds of per-layer metrics.
const (
	srcCounter = "C" // public counter or field read after the run
	srcProfile = "P" // share of CPU-profile self time whose leaf frame is in the layer
	srcFlight  = "F" // median virtual µs of an obs flight stage
	srcSpan    = "S" // harness span in virtual time around its own call
	srcProbe   = "B" // isolated probe timing the layer's public calls in host ns
	srcHarness = "H" // measured by the harness around a whole repetition
)

type e2eMetric struct {
	name, unit, better string
	bound              float64
	// fastest makes the reported value the minimum over the timed
	// repetitions instead of their median.
	fastest bool
}

// endToEnd is what a user of the simulator sees. Every metric is defined on
// every workload. The value is the median over the timed repetitions, except
// for the two host-time costs per operation, which report the fastest
// repetition: every repetition does identical work, other tenants of the
// machine only ever add time to it, and across ten runs the minimum spread
// about half as widely as the median did (benchmarks/README.md has the
// figures).
var endToEnd = []e2eMetric{
	{"wall_ns_per_op", "ns", "lower", 0.25, true},    // host wall over the measured interval ÷ ops
	{"cpu_ns_per_op", "ns", "lower", 0.25, true},     // process user+system CPU over the measured interval ÷ ops
	{"allocs_per_op", "count", "lower", 0.05, false}, // heap allocations over the measured interval ÷ ops
	{"peak_rss_mb", "MB", "lower", 0.15, false},      // resident set at the end of a repetition's run phase, where it is highest
	{"setup_s", "s", "lower", 0.25, false},           // host wall of cluster construction and application wiring, up to the first RunFor
	{"ok_frac", "ratio", "higher", 0.05, false},      // operations completed successfully within the workload's limit ÷ operations attempted
	{"virt_ops_per_s", "1/s", "higher", 0.05, false}, // successful operations ÷ virtual seconds of the counted interval
	{"virt_p50_us", "virt_us", "lower", 0.25, false}, // median virtual latency of successful operations
	{"virt_p99_us", "virt_us", "lower", 0.05, false}, // 99th percentile of the same
}

type layerMetric struct {
	name, unit, better string
	source             string
	moves              string // the end-to-end metric it should move, and where
}

func (m layerMetric) layer() string {
	layer, _, _ := strings.Cut(m.name, ".")
	return layer
}

// perLayer is every per-layer metric the traced run reports. A metric that
// does not apply to a workload reads 0 there.
var perLayer = []layerMetric{
	{"sim.events_per_op", "count", "lower", srcCounter, "wall_ns_per_op, cpu_ns_per_op on scale-1024 and serve-kv; flat on am-stream"},
	{"sim.host_ns_per_event", "ns", "lower", srcCounter, "wall_ns_per_op on am-stream"},
	{"sim.cancelled_frac", "ratio", "lower", srcCounter, "wall_ns_per_op on overcommit-cs (wasted timers)"},
	{"sim.pool_hit_rate", "ratio", "higher", srcCounter, "allocs_per_op on all four"},
	{"sim.max_pending", "count", "lower", srcCounter, "peak_rss_mb on scale-1024"},
	{"sim.barriers_per_virt_ms", "1/ms", "lower", srcCounter, "wall_ns_per_op, cpu_ns_per_op on scale-1024; 0 on the 1-shard workloads"},
	{"sim.exchanged_per_op", "count", "lower", srcCounter, "allocs_per_op on scale-1024"},
	{"sim.cpu_frac", "ratio", "lower", srcProfile, "wall_ns_per_op on all four"},
	{"sim.probe_timer_ns", "ns", "lower", srcProbe, "sim.host_ns_per_event"},
	{"sim.probe_switch_ns", "ns", "lower", srcProbe, "runtime.sched_cpu_frac; wall_ns_per_op on scale-1024"},
	{"sim.probe_barrier_ns", "ns", "lower", srcProbe, "wall_ns_per_op on scale-1024"},

	{"netsim.pkts_per_op", "count", "lower", srcCounter, "wall_ns_per_op on am-stream and overcommit-cs"},
	{"netsim.drop_frac", "ratio", "lower", srcCounter, "ok_frac, virt_p99_us; must be 0 on all four"},
	{"netsim.cpu_frac", "ratio", "lower", srcProfile, "wall_ns_per_op on am-stream"},
	{"netsim.wire_virt_us", "us", "lower", srcFlight, "virt_p50_us on am-stream, virt_p99_us on overcommit-cs"},
	{"netsim.probe_hop_ns", "ns", "lower", srcProbe, "netsim.cpu_frac"},

	{"nic.tx_per_op", "count", "lower", srcCounter, "wall_ns_per_op on overcommit-cs"},
	{"nic.retrans_per_op", "count", "lower", srcCounter, "virt_p99_us, wall_ns_per_op on overcommit-cs; 0 on am-stream"},
	{"nic.nack_per_op", "count", "lower", srcCounter, "virt_p99_us on overcommit-cs; 0 on am-stream"},
	{"nic.wrr_rounds_per_op", "count", "lower", srcCounter, "wall_ns_per_op on overcommit-cs"},
	{"nic.loiter_expiry_per_virt_s", "1/s", "lower", srcCounter, "virt_p99_us on overcommit-cs"},
	{"nic.counter_incs_per_op", "count", "lower", srcCounter, "wall_ns_per_op on am-stream (string-keyed map increments)"},
	{"nic.cpu_frac", "ratio", "lower", srcProfile, "wall_ns_per_op on am-stream"},
	{"nic.wrr_wait_virt_us", "us", "lower", srcFlight, "virt_p50_us on am-stream, virt_p99_us on overcommit-cs"},
	{"nic.send_virt_us", "us", "lower", srcFlight, "virt_p50_us on am-stream"},
	{"nic.remote_virt_us", "us", "lower", srcFlight, "virt_p50_us on am-stream"},
	{"nic.deposit_virt_us", "us", "lower", srcFlight, "virt_p50_us on am-stream"},

	{"hostos.remaps_per_virt_s", "1/s", "lower", srcCounter, "virt_p99_us, virt_ops_per_s on overcommit-cs; 0 elsewhere"},
	{"hostos.faults_per_op", "count", "lower", srcCounter, "virt_p99_us on overcommit-cs; 0 elsewhere"},
	{"hostos.setup_ns_per_host", "ns", "lower", srcHarness, "setup_s on scale-1024"},
	{"hostos.shutdown_s", "s", "lower", srcHarness, "total run time of scale-1024"},
	{"hostos.cpu_frac", "ratio", "lower", srcProfile, "wall_ns_per_op on overcommit-cs"},

	{"core.empty_poll_frac", "ratio", "lower", srcCounter, "sim.events_per_op, then wall_ns_per_op; AM workloads only"},
	{"core.credit_stall_per_op", "count", "lower", srcCounter, "virt_ops_per_s on am-stream"},
	{"core.sendq_stall_per_op", "count", "lower", srcCounter, "virt_ops_per_s on am-stream"},
	{"core.returns_per_op", "count", "lower", srcCounter, "ok_frac on overcommit-cs"},
	{"core.request_virt_us", "us", "lower", srcSpan, "virt_p50_us on am-stream"},
	{"core.post_virt_us", "us", "lower", srcFlight, "virt_p50_us on am-stream"},
	{"core.poll_virt_us", "us", "lower", srcFlight, "virt_p50_us on am-stream"},
	{"core.handler_virt_us", "us", "lower", srcFlight, "virt_p50_us on am-stream"},
	{"core.cpu_frac", "ratio", "lower", srcProfile, "wall_ns_per_op on am-stream"},
	{"core.probe_rtt_host_ns", "ns", "lower", srcProbe, "wall_ns_per_op on am-stream"},
	{"core.probe_bulk8k_host_ns", "ns", "lower", srcProbe, "no workload: the bulk path is timed only here"},

	{"rpc.reissues_per_op", "count", "lower", srcCounter, "ok_frac on serve-kv"},
	{"rpc.outstanding_end", "count", "lower", srcCounter, "ok_frac; must be 0"},
	{"rpc.call_virt_us", "us", "lower", srcSpan, "virt_p50_us on scale-1024"},
	{"rpc.wait_virt_us", "us", "lower", srcFlight, "virt_p50_us on serve-kv"},
	{"rpc.cpu_frac", "ratio", "lower", srcProfile, "wall_ns_per_op on scale-1024 and serve-kv; 0 on the AM workloads"},
	{"rpc.probe_call_host_ns", "ns", "lower", srcProbe, "wall_ns_per_op on scale-1024"},

	{"reliab.shed_per_op", "count", "lower", srcCounter, "ok_frac, virt_p99_us on serve-kv; 0 on scale-1024"},
	{"reliab.overload_nacks_per_op", "count", "lower", srcCounter, "ok_frac on serve-kv; 0 on scale-1024"},
	{"reliab.retries_per_op", "count", "lower", srcCounter, "virt_p99_us on serve-kv; 0 on scale-1024"},
	{"reliab.deadline_exceeded_per_op", "count", "lower", srcCounter, "ok_frac on serve-kv; 0 on scale-1024"},
	{"reliab.breaker_opens", "count", "lower", srcCounter, "ok_frac on serve-kv; 0 on scale-1024"},
	{"reliab.admit_wait_virt_us", "us", "lower", srcFlight, "virt_p50_us, virt_p99_us on serve-kv"},
	{"reliab.backoff_virt_us", "us", "lower", srcFlight, "virt_p99_us on serve-kv"},
	{"reliab.cpu_frac", "ratio", "lower", srcProfile, "wall_ns_per_op on serve-kv"},
	{"reliab.probe_admit_ns", "ns", "lower", srcProbe, "reliab.cpu_frac"},

	{"serve.goodput_frac", "ratio", "higher", srcCounter, "ok_frac on serve-kv"},
	{"serve.capped_per_op", "count", "lower", srcCounter, "ok_frac on serve-kv"},
	{"serve.server_ops_per_op", "count", "lower", srcCounter, "wall_ns_per_op on serve-kv"},
	{"serve.gen_late_p99_us", "us", "lower", srcSpan, "virt_p99_us on serve-kv"},
	{"serve.service_virt_us", "us", "lower", srcFlight, "virt_p50_us on serve-kv"},
	{"serve.fanin_virt_us", "us", "lower", srcFlight, "virt_p99_us on serve-kv"},
	{"serve.cpu_frac", "ratio", "lower", srcProfile, "wall_ns_per_op on serve-kv"},

	{"obs.traced_wall_ratio", "ratio", "lower", srcHarness, "what users pay in wall time with tracing on"},
	{"obs.traced_allocs_per_op", "count", "lower", srcHarness, "what users pay in allocations with tracing on"},
	{"obs.flights_per_op", "count", "lower", srcCounter, "obs.traced_wall_ratio"},
	{"obs.dropped_flights", "count", "lower", srcCounter, "flights that did not complete"},
	{"obs.cpu_frac", "ratio", "lower", srcProfile, "wall_ns_per_op with tracing off: the disabled path, should be near 0"},
	{"obs.probe_flight_ns", "ns", "lower", srcProbe, "obs.traced_wall_ratio"},

	{"trace.cpu_frac", "ratio", "lower", srcProfile, "wall_ns_per_op on am-stream"},
	{"trace.probe_inc_ns", "ns", "lower", srcProbe, "trace.cpu_frac, nic.cpu_frac"},

	{"runtime.sched_cpu_frac", "ratio", "lower", srcProfile, "wall_ns_per_op, cpu_ns_per_op on scale-1024 and serve-kv"},
	{"runtime.gc_cpu_frac", "ratio", "lower", srcProfile, "cpu_ns_per_op on all four"},
	{"runtime.gc_cycles", "count", "lower", srcHarness, "cpu_ns_per_op"},
	{"runtime.bytes_per_op", "count", "lower", srcHarness, "allocs_per_op, peak_rss_mb"},
	{"runtime.heap_peak_mb", "MB", "lower", srcHarness, "peak_rss_mb"},
	{"runtime.goroutines_peak", "count", "lower", srcHarness, "peak_rss_mb on scale-1024"},

	{"harness.cpu_frac", "ratio", "lower", srcProfile, "must stay below 0.05: the numbers measure the program, not the driver"},
	{"harness.span_wall_ratio", "ratio", "lower", srcHarness, "cost of the harness's own spans"},

	{"other.cpu_frac", "ratio", "lower", srcProfile, "rest of the Go runtime and the standard library"},
}

var workloads = []*workloadDef{
	{
		name: "am-stream", shards: 1, setup: setupAMStream,
		loop: "closed loop, 8 clients",
		why:  "nearly every event is useful work: isolates the per-message hot path (core post/poll, nic firmware, netsim hops, sim dispatch); idle-poll and sharding work should leave it flat",
	},
	{
		name: "overcommit-cs", shards: 1, setup: setupOvercommit,
		loop: "closed loop, 24 clients",
		why:  "Fig. 6 MT-8: 24 clients on 8 NI frames push traffic off the fast path (NACKs, retransmits, write faults, ~400 remaps/s); a fast-path gain that taxes the slow path shows here",
	},
	{
		name: "scale-1024", shards: 2, setup: setupScale,
		loop: "closed loop, 512 clients",
		why:  "1,024 hosts, 2 shards, sparse synchronous rpc calls: idle waiting, timers, barrier windows and cross-shard exchange dominate; per-message nic cost is a small share",
	},
	{
		name: "serve-kv", shards: 1, setup: setupServeKV,
		loop: "open loop, 64 clients, mean 0.8x capacity, bursts to 2x",
		why:  "the top of the stack does the work: rpc, reliab and serve admit, shed and miss deadlines in bursts, idle between them; latency from due time",
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
