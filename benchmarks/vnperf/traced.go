package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"time"
)

// tracedResult is what the traced run of one workload yields.
type tracedResult struct {
	metrics   map[string]float64
	attempted int64
	broken    int64
	gate      []string
	digest    uint64
}

// runTraced is the separate run that yields the per-layer numbers; no
// end-to-end metric is ever taken from it. After one discarded warm-up it
// makes these passes over the same inputs, each repeated for its share of
// the time asked for:
//
//	plain    obs off, spans off: the reference wall time and digest, and the
//	         counter metrics
//	profile  obs off, a runtime/pprof CPU profile around the measured
//	         interval; takes the largest share, for the sample count
//	spans    obs off, harness spans on: what the spans themselves cost
//	flight   obs at 1-in-16 and spans on: flight stages, span metrics, the
//	         counters only a cluster with obs enabled keeps, and what users
//	         pay with tracing on
//	probes   each layer probe
//
// Ratios between passes compare the median repetition of each. Every
// repetition of every pass must reproduce the first one's virtual-time
// digest.
func runTraced(w *workloadDef, cfg runCfg, seconds float64, traceOut string, log io.Writer) (*tracedResult, error) {
	start := time.Now()
	spans := newSpanRec()
	out := &tracedResult{metrics: map[string]float64{}}
	reps := 0
	// pass repeats one kind of repetition until share has passed, each under
	// its own host-clock span with its phases as children, and returns the
	// repetition whose measured interval took the median wall time.
	pass := func(name string, c runCfg, share time.Duration, hook func() *phaseHook) (*repResult, int, error) {
		var done []*repResult
		for t0 := time.Now(); len(done) == 0 || time.Since(t0) < share; {
			reps++
			h := &phaseHook{}
			if hook != nil {
				h = hook()
			}
			r0 := time.Now()
			// The repetition span is filed first so that phases can name it
			// as their parent; its end is patched when the repetition is over.
			repID := spans.hostSpan(fmt.Sprintf("rep %d (%s)", reps, name), spans.runID, r0, r0)
			spans.repID = repID
			h.phase = func(ph string, s, e time.Time) { spans.hostSpan(ph, repID, s, e) }
			r, err := runRep(w, c, h)
			spans.spans[repID-1].End = time.Since(spans.epoch).Nanoseconds()
			if err != nil {
				return nil, 0, err
			}
			out.attempted += r.out.attempted
			out.broken += r.out.broken
			for _, g := range r.out.gate {
				out.gate = append(out.gate, name+" pass: "+g)
			}
			if out.digest == 0 {
				out.digest = r.digest
			} else if r.digest != out.digest {
				out.gate = append(out.gate, fmt.Sprintf("%s pass: virt_digest %016x differs from the first pass's %016x", name, r.digest, out.digest))
			}
			done = append(done, r)
		}
		sort.Slice(done, func(i, j int) bool { return done[i].wallNs < done[j].wallNs })
		return done[len(done)/2], len(done), nil
	}
	spans.runID = spans.hostSpan("run "+w.name, 0, start, start)

	probeTime := probeBudget
	if cfg.toy {
		probeTime = 2 * time.Millisecond
	}
	const nProbes = 10
	if _, _, err := pass("warm-up", cfg, 0, nil); err != nil {
		return nil, err
	}
	// What is left after the warm-up and the probes is shared out: an eighth
	// each to the plain and spans passes, a quarter to the flight pass, half
	// to the profile.
	left := max(0, time.Duration(seconds*float64(time.Second))-time.Since(start)-nProbes*probeTime)

	plain, _, err := pass("plain", cfg, left/8, nil)
	if err != nil {
		return nil, err
	}
	for k, v := range counterMetrics(w, plain) {
		out.metrics[k] = v
	}

	var samples []profSample
	var profErr error
	_, profReps, err := pass("profile", cfg, left/2, func() *phaseHook {
		buf := &bytes.Buffer{}
		return &phaseHook{
			startRun: func() {
				if err := pprof.StartCPUProfile(buf); err != nil && profErr == nil {
					profErr = err
				}
			},
			stopRun: func() {
				pprof.StopCPUProfile()
				s, err := parseProfile(buf.Bytes())
				if err != nil && profErr == nil {
					profErr = err
				}
				samples = append(samples, s...)
			},
		}
	})
	if err == nil {
		err = profErr
	}
	if err != nil {
		return nil, fmt.Errorf("profile pass: %w", err)
	}
	for b, f := range cpuFractions(samples) {
		switch b {
		case bucketSched:
			out.metrics["runtime.sched_cpu_frac"] = f
		case bucketGC:
			out.metrics["runtime.gc_cpu_frac"] = f
		default:
			out.metrics[b+".cpu_frac"] = f
		}
	}

	spanCfg := cfg
	spanCfg.spans = spans
	spanOnly, _, err := pass("spans", spanCfg, left/8, nil)
	if err != nil {
		return nil, err
	}
	out.metrics["harness.span_wall_ratio"] = ratio(spanOnly.wallNs, plain.wallNs)

	flightCfg := spanCfg
	flightCfg.obsEvery = 16
	fl, _, err := pass("flight", flightCfg, left/4, nil)
	if err != nil {
		return nil, err
	}
	// One repetition's operations are enough for the trace file; every
	// repetition has the same ones.
	spans.addOps(fl.out.ops64, fl.flights)
	ops := float64(fl.out.ops)
	out.metrics["obs.traced_wall_ratio"] = ratio(fl.wallNs, plain.wallNs)
	out.metrics["obs.traced_allocs_per_op"] = ratio(float64(fl.mallocs), ops)
	out.metrics["obs.flights_per_op"] = ratio(float64(len(fl.flights)), ops)
	out.metrics["obs.dropped_flights"] = float64(fl.droppedFlights)
	out.metrics["core.credit_stall_per_op"] = ratio(float64(fl.ctr.coreStall), ops)
	out.metrics["core.sendq_stall_per_op"] = ratio(float64(fl.ctr.coreSendqStall), ops)
	for k, v := range flightMetrics(fl.flights) {
		out.metrics[k] = v
	}
	for k, v := range spanMetrics(&fl.out) {
		out.metrics[k] = v
	}

	tProbes := time.Now()
	for k, v := range runProbes(probeTime) {
		out.metrics[k] = v
	}
	spans.hostSpan("probes", spans.runID, tProbes, time.Now())
	spans.spans[spans.runID-1].End = time.Since(spans.epoch).Nanoseconds()

	fmt.Fprintf(log, "traced run: %d repetitions (%d profiled, %d profile samples), %d spans, %.1f s\n",
		reps, profReps, len(samples), len(spans.spans), time.Since(start).Seconds())
	if traceOut != "" {
		if err := spans.writeChromeTrace(traceOut); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "trace written to %s (load in Perfetto or chrome://tracing)\n", traceOut)
	}
	return out, nil
}
