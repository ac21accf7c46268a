package main

import (
	"sort"

	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

// ratio is a/b, and 0 when b is 0: a per-layer metric that does not apply to
// a workload reads 0 there.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterMetrics derives the per-layer metrics that come from public
// counters and fields read after one untraced repetition (source kind C).
func counterMetrics(w *workloadDef, r *repResult) map[string]float64 {
	c, o := r.ctr, &r.out
	ops := float64(o.ops)
	virtS := r.virtRun.Seconds()
	m := map[string]float64{
		"sim.events_per_op":        ratio(float64(c.eng.Fired), ops),
		"sim.host_ns_per_event":    ratio(r.wallNs, float64(c.eng.Fired)),
		"sim.cancelled_frac":       ratio(float64(c.eng.Cancelled), float64(c.eng.Scheduled)),
		"sim.pool_hit_rate":        ratio(float64(c.eng.PoolHits), float64(c.eng.PoolHits+c.eng.PoolMisses)),
		"sim.max_pending":          float64(c.eng.MaxPending),
		"sim.barriers_per_virt_ms": ratio(float64(c.barriers), virtS*1e3),
		"sim.exchanged_per_op":     ratio(float64(c.exchanged), ops),

		"netsim.pkts_per_op": ratio(float64(c.sent), ops),
		"netsim.drop_frac":   ratio(float64(c.dropped), float64(c.sent)),

		"nic.tx_per_op":                ratio(float64(c.nic["tx.data"]), ops),
		"nic.retrans_per_op":           ratio(float64(c.nic["tx.retrans"]), ops),
		"nic.nack_per_op":              ratio(float64(c.nackTotal()), ops),
		"nic.wrr_rounds_per_op":        ratio(float64(c.nic["wrr.rounds"]), ops),
		"nic.loiter_expiry_per_virt_s": ratio(float64(c.nic["wrr.loiter_expiry"]), virtS),
		"nic.counter_incs_per_op":      ratio(float64(c.nicIncs()), ops),

		"hostos.remaps_per_virt_s": ratio(float64(c.drv["remap.load"]), virtS),
		"hostos.faults_per_op":     ratio(float64(c.drv["fault.write"]), ops),
		"hostos.setup_ns_per_host": ratio(r.setupS*1e9, float64(r.hosts)),
		"hostos.shutdown_s":        r.shutdownS,

		"core.empty_poll_frac": ratio(float64(o.emptyPolls), float64(o.polls)),
		"core.returns_per_op":  ratio(float64(o.coreReturns), ops),

		"rpc.reissues_per_op": ratio(float64(o.srvRetries), ops),
		"rpc.outstanding_end": float64(o.rpcOutstanding),

		// Everything a server refused rather than served: queue-full NACKs
		// plus entries dropped because their deadline had passed.
		"reliab.shed_per_op":              ratio(float64(o.rel["shed"]+o.rel["overload_nacks"]), ops),
		"reliab.overload_nacks_per_op":    ratio(float64(o.rel["overload_nacks"]), ops),
		"reliab.retries_per_op":           ratio(float64(o.rel["retries"]), ops),
		"reliab.deadline_exceeded_per_op": ratio(float64(o.rel["deadline_exceeded"]), ops),
		"reliab.breaker_opens":            float64(o.rel["breaker_open"]),

		"serve.goodput_frac":      0,
		"serve.capped_per_op":     0,
		"serve.server_ops_per_op": 0,

		"runtime.gc_cycles":       float64(r.gcCycles),
		"runtime.bytes_per_op":    ratio(float64(r.bytes), ops),
		"runtime.heap_peak_mb":    float64(r.heapPeak) / (1 << 20),
		"runtime.goroutines_peak": float64(r.goroutines),
	}
	if w.name == "serve-kv" {
		m["serve.goodput_frac"] = ratio(float64(o.done), ops)
		m["serve.capped_per_op"] = ratio(float64(o.capped), ops)
		m["serve.server_ops_per_op"] = ratio(float64(o.serverOps), ops)
	}
	return m
}

// stageMedians returns, for each flight stage, the median virtual
// microseconds over the flights in which the stage was recorded. Only whole
// completed flights count: dropped flights and the two halves of a flight
// handed across a shard boundary each hold part of a message's life.
func stageMedians(flights []*obs.Flight, kinds ...obs.Kind) [obs.NumStages]float64 {
	want := map[obs.Kind]bool{}
	for _, k := range kinds {
		want[k] = true
	}
	var samples [obs.NumStages][]float64
	for _, f := range flights {
		if !want[f.Kind] || !f.Done() || f.DropReason != "" || f.HandedOff || f.Link != 0 {
			continue
		}
		var seen [obs.NumStages]bool
		for _, st := range f.Stages {
			if st.Stage < obs.NumStages {
				seen[st.Stage] = true
			}
		}
		for st, d := range f.StageTotals() {
			if seen[st] {
				samples[st] = append(samples[st], d.Micros())
			}
		}
	}
	var out [obs.NumStages]float64
	for st := range samples {
		out[st] = median(samples[st])
	}
	return out
}

// flightMetrics derives the per-layer metrics that are virtual-time stages
// of obs flights (source kind F).
func flightMetrics(flights []*obs.Flight) map[string]float64 {
	msg := stageMedians(flights, obs.KindShort, obs.KindBulk, obs.KindReply)
	req := stageMedians(flights, obs.KindReq)
	op := stageMedians(flights, obs.KindOp)
	return map[string]float64{
		"core.post_virt_us":    msg[obs.StageHostPost],
		"nic.wrr_wait_virt_us": msg[obs.StageWRRWait],
		"nic.send_virt_us":     msg[obs.StageNISend],
		"netsim.wire_virt_us":  msg[obs.StageWire],
		"nic.remote_virt_us":   msg[obs.StageRemoteNI],
		"nic.deposit_virt_us":  msg[obs.StageDeposit],
		"core.poll_virt_us":    msg[obs.StageHostPoll],
		"core.handler_virt_us": msg[obs.StageHandler],

		"rpc.wait_virt_us":          req[obs.StageRPCWait],
		"serve.fanin_virt_us":       req[obs.StageFanIn],
		"reliab.admit_wait_virt_us": op[obs.StageAdmitWait],
		"serve.service_virt_us":     op[obs.StageService],
		"reliab.backoff_virt_us":    op[obs.StageBackoff],
	}
}

// spanMetrics derives the per-layer metrics that are harness spans in
// virtual time around the harness's own calls (source kind S).
func spanMetrics(o *outcome) map[string]float64 {
	byCall := map[string][]float64{}
	for _, s := range o.ops64 {
		if s.complete() {
			byCall[s.call] = append(byCall[s.call], s.callEnd.Sub(s.start).Micros())
		}
	}
	late := append([]int64(nil), o.genLate...)
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	return map[string]float64{
		"core.request_virt_us":  median(byCall["Endpoint.Request"]),
		"rpc.call_virt_us":      median(byCall["Client.Call"]),
		"serve.gen_late_p99_us": sim.Duration(percentileNearestRank(late, 0.99)).Micros(),
	}
}
