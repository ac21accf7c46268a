package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"virtnet/internal/hostos"
	"virtnet/internal/netsim"
	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

// engineSeed seeds every cluster's own PRNG (random frame replacement, retry
// jitter, endpoint keys). It is configuration of the program under test, not
// an input, so it is the same on every run: the workload seed feeds only what
// the harness generates — placement, think times, keys, arrival streams.
const engineSeed = 1

// runCfg is everything a workload's setup may depend on. The program under
// test sees only what setup derives from it.
type runCfg struct {
	// seed is the workload seed: it feeds the harness's input generators.
	seed int64
	// toy shrinks every workload to a size the unit tests can run in
	// milliseconds; the metric set is the same.
	toy bool
	// obsEvery enables the flight recorder at 1-in-N (0 = observability off).
	obsEvery int
	// spans, when non-nil, turns the harness's own spans on.
	spans *spanRec
	// breakLedger corrupts the exactly-once ledger after the run, to prove
	// that the correctness gate trips.
	breakLedger bool
}

// prepare must be the first thing a setup does with its new cluster. With
// tracing on it enables the observability layer (before any bundle
// attaches). With tracing off it draws one value from each shard's engine
// PRNG instead — exactly the draw the flight recorder makes to seed its
// sampler — so traced and untraced runs of one seed see the same random
// stream and their virtual-time digests can be compared bit for bit.
func (c runCfg) prepare(cl *hostos.Cluster) {
	if c.obsEvery > 0 {
		cl.EnableObs(obs.Options{SampleEvery: c.obsEvery, RingCap: 1 << 14})
		return
	}
	for s := 0; s < cl.Shards(); s++ {
		cl.ShardEngine(s).Rand().Int63()
	}
}

// workloadDef names one workload. setup builds the cluster and wires the
// application; everything it does is charged to setup_s.
type workloadDef struct {
	name   string
	loop   string // closed/open loop and its client count or schedule
	why    string
	shards int
	setup  func(cfg runCfg) (job, error)
}

// job is one built instance of a workload: a cluster wired and ready, whose
// first RunFor has not happened yet.
type job interface {
	cluster() *hostos.Cluster
	// run is the run phase: first RunFor to last completion. It calls mark
	// exactly once, at the start of the interval whose operations count —
	// immediately, or after the workload's virtual warm-up.
	run(mark func())
	// drain lets stragglers finish and stops the application threads.
	drain()
	// harvest reads the application's results and checks its ledger.
	harvest(o *outcome)
}

// outcome is what one repetition of a workload produced, in virtual time.
// All of it is a pure function of (seed, shards).
type outcome struct {
	// ops is the denominator of every *_per_op metric, and done of them
	// completed successfully inside the counted interval virtDur. good is
	// how many of the attempted operations of the whole run completed
	// successfully within the workload's limit; broken counts operations
	// whose result was wrong or duplicated (the gate requires 0).
	ops, done, attempted, good, broken int64
	// virtDur is the virtual duration over which ops and done were counted.
	virtDur sim.Duration
	// lat holds one virtual-time latency per good operation, in a
	// deterministic (per-client) order.
	lat []int64
	// gate lists correctness breaches; empty means the outputs are correct.
	gate []string

	// Driver-side counts and virtual-time spans, for the per-layer metrics.
	polls, emptyPolls int64
	coreReturns       int64
	rpcOutstanding    int64
	rel               map[string]int64 // reliab counters, clients and servers
	srvRetries        int64            // result re-sends by rpc servers
	serverOps         int64
	capped            int64
	genLate           []int64 // ns between a request's due time and its Issue
	ops64             []opSpan
}

func (o *outcome) breach(format string, a ...any) {
	o.gate = append(o.gate, fmt.Sprintf(format, a...))
}

// counters is the set of public per-layer counters summed over the cluster.
type counters struct {
	nic, drv                  map[string]int64
	sent, delivered, dropped  int64
	barriers, exchanged       uint64
	eng                       sim.Stats
	coreStall, coreSendqStall int64 // from Bundle.C, present only with obs on
}

func readCounters(cl *hostos.Cluster) counters {
	c := counters{nic: map[string]int64{}, drv: map[string]int64{}}
	for _, n := range cl.Nodes {
		for _, kv := range n.NIC.C.Snapshot() {
			c.nic[kv.Name] += kv.Value
		}
		for _, kv := range n.Driver.C.Snapshot() {
			c.drv[kv.Name] += kv.Value
		}
	}
	c.sent, c.delivered, c.dropped, _ = cl.NetTotals()
	if cl.Coord != nil {
		c.barriers, c.exchanged = cl.Coord.ExchangeStats()
	}
	c.eng = cl.EngineStats()
	if cl.Obs() != nil {
		for _, kv := range cl.MergedSnapshot().Vals {
			if !strings.HasPrefix(kv.Name, "core.n") {
				continue
			}
			switch {
			case strings.HasSuffix(kv.Name, ".credit_stall"):
				c.coreStall += int64(kv.Value)
			case strings.HasSuffix(kv.Name, ".sendq_stall"):
				c.coreSendqStall += int64(kv.Value)
			}
		}
	}
	return c
}

// sub returns c minus an earlier reading. MaxPending is a high-water mark,
// not a count, and is kept as is.
func (c counters) sub(b counters) counters {
	d := counters{nic: map[string]int64{}, drv: map[string]int64{}}
	for k, v := range c.nic {
		d.nic[k] = v - b.nic[k]
	}
	for k, v := range c.drv {
		d.drv[k] = v - b.drv[k]
	}
	d.sent, d.delivered, d.dropped = c.sent-b.sent, c.delivered-b.delivered, c.dropped-b.dropped
	d.barriers, d.exchanged = c.barriers-b.barriers, c.exchanged-b.exchanged
	d.eng = sim.Stats{
		Fired:      c.eng.Fired - b.eng.Fired,
		Scheduled:  c.eng.Scheduled - b.eng.Scheduled,
		Cancelled:  c.eng.Cancelled - b.eng.Cancelled,
		PoolHits:   c.eng.PoolHits - b.eng.PoolHits,
		PoolMisses: c.eng.PoolMisses - b.eng.PoolMisses,
		MaxPending: c.eng.MaxPending,
	}
	d.coreStall = c.coreStall - b.coreStall
	d.coreSendqStall = c.coreSendqStall - b.coreSendqStall
	return d
}

// nackTotal sums the per-reason NACK counters the NI firmware keeps.
func (c counters) nackTotal() int64 {
	var n int64
	for k, v := range c.nic {
		if strings.HasPrefix(k, "tx.nack.") {
			n += v
		}
	}
	return n
}

// nicIncs is the number of string-keyed counter increments the NI firmware
// made: every non-byte counter counts one increment per unit.
func (c counters) nicIncs() int64 {
	var n int64
	for k, v := range c.nic {
		if !strings.HasSuffix(k, ".bytes") {
			n += v
		}
	}
	return n
}

// hostSample is one reading of the host-side clocks and allocator.
type hostSample struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gc      uint32
	heap    uint64
	gor     int
	rssMB   float64
}

// readHost takes one reading. The clocks are read last at the start of an
// interval and first at its end, so that taking the reading — which itself
// allocates and takes time — stays outside the interval.
func readHost(end bool) hostSample {
	var h hostSample
	clocks := func() { h.at, h.cpu = time.Now(), cpuTime() }
	if end {
		clocks()
	}
	var ms runtime.MemStats
	if !end {
		h.rssMB = residentMB()
	}
	runtime.ReadMemStats(&ms)
	if end {
		h.rssMB = residentMB()
	}
	h.mallocs, h.bytes, h.gc, h.heap = ms.Mallocs, ms.TotalAlloc, ms.NumGC, ms.HeapInuse
	h.gor = runtime.NumGoroutine()
	if !end {
		clocks()
	}
	return h
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentMB is the process's resident set now, from /proc/self/statm. The
// benchmark reads it at both ends of every repetition's measured interval
// and reports the median repetition: ru_maxrss, the lifetime peak, is set by
// any one transient — two repetitions' garbage overlapping — and spread by
// 35% between runs of am-stream where this spreads by a few percent. Where
// /proc is missing it falls back to ru_maxrss.
func residentMB() float64 {
	if data, err := os.ReadFile("/proc/self/statm"); err == nil {
		var size, resident int64
		if n, _ := fmt.Sscan(string(data), &size, &resident); n == 2 {
			return float64(resident*int64(os.Getpagesize())) / (1 << 20)
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// repResult is one repetition: host-side measurements of the measured
// interval (mark to end of the run phase), the counters' change over the
// same interval, and the virtual-time outcome.
type repResult struct {
	setupS, shutdownS float64
	wallNs, cpuNs     float64
	mallocs, bytes    uint64
	gcCycles          uint32
	heapPeak          uint64
	rssMB             float64
	goroutines        int
	hosts             int
	ctr               counters
	virtRun           sim.Duration // virtual length of the measured interval
	out               outcome
	digest            uint64
	flights           []*obs.Flight // traced repetitions only
	droppedFlights    int64
}

// phaseHook lets the traced run record the host-time phases of a repetition
// and wrap the run phase (CPU profile); nil in untraced runs.
type phaseHook struct {
	phase    func(name string, start, end time.Time)
	startRun func()
	stopRun  func()
}

func (h *phaseHook) record(name string, start time.Time) {
	if h != nil && h.phase != nil {
		h.phase(name, start, time.Now())
	}
}

// runRep builds a fresh cluster, runs the workload once and tears it down.
func runRep(w *workloadDef, cfg runCfg, hook *phaseHook) (*repResult, error) {
	runtime.GC()
	res := &repResult{}

	t0 := time.Now()
	j, err := w.setup(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	res.setupS = time.Since(t0).Seconds()
	hook.record("setup", t0)
	cl := j.cluster()
	res.hosts = len(cl.Nodes)

	// Readings at mark: counters first and the host clocks last, so that
	// reading the counters is outside the measured interval; the other way
	// round at the end.
	var c0 counters
	var h0 hostSample
	var v0 sim.Time
	marked := false
	mark := func() {
		marked = true
		v0 = cl.Now()
		c0 = readCounters(cl)
		if hook != nil && hook.startRun != nil {
			hook.startRun()
		}
		h0 = readHost(false)
	}
	tRun := time.Now()
	j.run(mark)
	h1 := readHost(true)
	if hook != nil && hook.stopRun != nil {
		hook.stopRun()
	}
	if !marked {
		return nil, fmt.Errorf("%s: run phase never marked its measured interval", w.name)
	}
	res.virtRun = cl.Now().Sub(v0)
	res.ctr = readCounters(cl).sub(c0)
	hook.record("run", tRun)

	res.wallNs = float64(h1.at.Sub(h0.at).Nanoseconds())
	res.cpuNs = float64((h1.cpu - h0.cpu).Nanoseconds())
	res.mallocs = h1.mallocs - h0.mallocs
	res.bytes = h1.bytes - h0.bytes
	res.gcCycles = h1.gc - h0.gc
	res.heapPeak = max(h0.heap, h1.heap)
	res.goroutines = max(h0.gor, h1.gor)
	res.rssMB = max(h0.rssMB, h1.rssMB)

	tDrain := time.Now()
	j.drain()
	hook.record("drain", tDrain)

	tHarvest := time.Now()
	j.harvest(&res.out)
	if cfg.breakLedger {
		res.out.broken++
		res.out.breach("ledger: one operation deliberately marked as answered twice (-break-ledger)")
	}
	checkCluster(cl, w.shards, &res.out)
	res.digest = digestOf(&res.out, readCounters(cl))
	if cfg.obsEvery > 0 {
		cl.SweepOpenFlights("run-end")
		res.flights = cl.MergedFlights()
		for _, t := range cl.Tracers() {
			res.droppedFlights += t.DroppedFlights()
		}
		checkFlights(res.flights, &res.out)
	}
	hook.record("harvest", tHarvest)

	tShut := time.Now()
	cl.Shutdown()
	res.shutdownS = time.Since(tShut).Seconds()
	hook.record("shutdown", tShut)
	return res, nil
}

// checkCluster is the part of the correctness gate every workload shares:
// the fabric lost nothing, and on sharded clusters every pooled object is
// back on the shard that owns it.
func checkCluster(cl *hostos.Cluster, shards int, o *outcome) {
	if _, _, dropped, corrupted := cl.NetTotals(); dropped != 0 || corrupted != 0 {
		o.breach("netsim: %d packets dropped, %d corrupted on a loss-free fabric", dropped, corrupted)
	}
	if shards <= 1 {
		return
	}
	for _, n := range cl.Nodes {
		if err := n.NIC.VerifyPoolLocality(); err != nil {
			o.breach("nic %d: %v", int(n.ID), err)
			return
		}
	}
	for s := 0; s < cl.Shards(); s++ {
		if err := cl.ShardNet(s).VerifyPoolLocality(); err != nil {
			o.breach("netsim shard %d: %v", s, err)
			return
		}
	}
}

// checkFlights asserts the flight recorder's own invariant: the stages of
// every finalized flight tile its end-to-end time exactly.
func checkFlights(flights []*obs.Flight, o *outcome) {
	for _, f := range flights {
		var sum sim.Duration
		for _, d := range f.StageTotals() {
			sum += d
		}
		if sum != f.Total() {
			o.breach("obs: flight span %d stages sum to %v, end-to-end %v", f.Span, sum, f.Total())
			return
		}
	}
}

// digestOf hashes every virtual-time output of a repetition: what users of
// the simulated cluster would observe (operation counts, every latency, the
// virtual duration) and the protocol-level counters that explain it
// (messages, retransmissions, NACKs, remaps, fabric totals, reliability
// outcomes). Simulator-internal counts — events fired, WRR rounds — are left
// out on purpose: an optimisation may change them while leaving every
// virtual-time result identical, and the digest is how that is checked.
func digestOf(o *outcome, c counters) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	put(o.ops)
	put(o.done)
	put(o.attempted)
	put(o.good)
	put(o.broken)
	put(int64(o.virtDur))
	put(int64(len(o.lat)))
	for _, l := range o.lat {
		put(l)
	}
	put(o.coreReturns)
	put(o.serverOps)
	put(o.capped)
	for _, k := range sortedKeys(o.rel) {
		h.Write([]byte(k))
		put(o.rel[k])
	}
	for _, k := range sortedKeys(c.nic) {
		if strings.HasPrefix(k, "wrr.") {
			continue
		}
		h.Write([]byte(k))
		put(c.nic[k])
	}
	for _, k := range sortedKeys(c.drv) {
		h.Write([]byte(k))
		put(c.drv[k])
	}
	put(c.sent)
	put(c.delivered)
	put(c.dropped)
	return h.Sum64()
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// e2e derives the end-to-end metrics that one repetition yields; setup_s is
// sampled apart from the repetitions, in e2eMode.
func (r *repResult) e2e() map[string]float64 {
	ops := float64(r.out.ops)
	lat := append([]int64(nil), r.out.lat...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return map[string]float64{
		"wall_ns_per_op": r.wallNs / ops,
		"cpu_ns_per_op":  r.cpuNs / ops,
		"allocs_per_op":  float64(r.mallocs) / ops,
		"peak_rss_mb":    r.rssMB,
		"ok_frac":        float64(r.out.good) / float64(r.out.attempted),
		"virt_ops_per_s": float64(r.out.done) / r.out.virtDur.Seconds(),
		"virt_p50_us":    float64(percentileNearestRank(lat, 0.50)) / 1e3,
		"virt_p99_us":    float64(percentileNearestRank(lat, 0.99)) / 1e3,
	}
}

// placeSimperf maps pair i of a leaf-aligned cluster to its (server, client)
// hosts: each pair shares a leaf, except that every fourth pair in the lower
// half swaps clients with its partner in the upper half, so about a quarter
// of the traffic crosses leaves and shards. rot rotates which pairs cross.
func placeSimperf(i, pairs, rot int) (srv, cli netsim.NodeID) {
	s, c := 2*i, 2*i+1
	half := pairs / 2
	if i < half && (i+rot)%4 == 0 {
		c = 2*(i+half) + 1
	} else if j := i - half; j >= 0 && j < half && (j+rot)%4 == 0 {
		c = 2*j + 1
	}
	return netsim.NodeID(s), netsim.NodeID(c)
}

// bigTree is the three-level fat tree the large workloads run on: 8 hosts
// per leaf, 4 spines and 16 leaves per pod, 8 cores — 128 hosts per pod.
func bigTree() hostos.ClusterConfig {
	c := hostos.DefaultClusterConfig()
	c.Net.HostsPerLeaf = 8
	c.Net.Spines = 4
	c.Net.LeavesPerPod = 16
	c.Net.Cores = 8
	return c
}
