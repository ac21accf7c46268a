package bench

import (
	"errors"
	"fmt"
	"io"

	"virtnet/internal/hostos"
	"virtnet/internal/sim"
	"virtnet/internal/splitc"
)

// The §6.3 experiment: several Split-C-style parallel applications
// time-share one partition of the cluster, relying on implicit co-scheduling
// (conventional local schedulers; the virtual network subsystem adapts the
// resident set to the active endpoints).
const (
	timeshareNodes = 16 // partition size, as in the paper
	timeshareApps  = 2  // concurrently running applications
	timeshareIters = 40 // bulk-synchronous iterations per application
	// timeshareCompute is the per-iteration computation per rank.
	timeshareCompute = 2 * sim.Millisecond
	// timeshareMsgBytes is the neighbor-exchange volume per iteration per
	// rank.
	timeshareMsgBytes = 2048
)

// timeshareResult compares running the applications concurrently
// (time-shared) against running them in sequence.
type timeshareResult struct {
	SharedMakespan  sim.Duration
	SequentialTotal sim.Duration
	// Ratio = SharedMakespan / SequentialTotal; the paper reports <= 1.15
	// for balanced workloads and < 1.0 (throughput gain) with imbalance.
	Ratio float64
	// Per-rank mean data-movement time in each regime: §6.3's observation
	// is that it stays nearly constant, i.e. communicating applications get
	// full network performance when they run. Barrier wait (scheduling
	// skew) is reported separately.
	SharedCommMean sim.Duration
	SeqCommMean    sim.Duration
	SharedSyncMean sim.Duration
	SeqSyncMean    sim.Duration
}

// appBody returns the bulk-synchronous program body. Imbalance skews
// per-rank compute: rank r computes timeshareCompute * (1 +
// imbalance*r/(n-1)). The paper reports time-sharing improving throughput
// up to 20% for imbalanced workloads.
func appBody(imbalance float64) func(p *sim.Proc, r *splitc.Rank) {
	return func(p *sim.Proc, r *splitc.Rank) {
		n := r.Size()
		buf := make([]byte, timeshareMsgBytes)
		work := float64(timeshareCompute)
		if imbalance > 0 && n > 1 {
			work *= 1 + imbalance*float64(r.ID())/float64(n-1)
		}
		for it := 0; it < timeshareIters; it++ {
			r.Node().Compute(p, sim.Duration(work))
			next := (r.ID() + 1) % n
			r.Store(p, next, 0, buf)
			r.StoreSync(p)
			r.Barrier(p)
		}
	}
}

// runApps launches timeshareApps applications (each its own virtual network
// over the same nodes), in sequence or at once, and returns the makespan and
// mean comm time per app.
func runApps(cl *hostos.Cluster, imbalance float64, sequential bool) (sim.Duration, sim.Duration, sim.Duration, bool) {
	start := cl.Now()
	var worlds []*splitc.World
	for a := 0; a < timeshareApps; a++ {
		w, err := splitc.NewWorld(cl, timeshareNodes, timeshareMsgBytes+64, nil)
		if err != nil {
			return 0, 0, 0, false
		}
		worlds = append(worlds, w)
	}
	body := appBody(imbalance)
	maxT := 1000 * sim.Second
	if sequential {
		for _, w := range worlds {
			if !w.Run(body, maxT) {
				return 0, 0, 0, false
			}
		}
	} else {
		for _, w := range worlds {
			w.Launch(body)
		}
		idle := func() bool {
			for _, w := range worlds {
				if w.Running() > 0 {
					return false
				}
			}
			return true
		}
		if !cl.RunUntilDone(sim.Millisecond, cl.Now().Add(maxT), idle) {
			return 0, 0, 0, false
		}
	}
	makespan := cl.Now().Sub(start)
	var comm, sync sim.Duration
	var ranks int
	for _, w := range worlds {
		for i := 0; i < w.Size(); i++ {
			comm += w.Rank(i).CommTime
			sync += w.Rank(i).SyncTime
			ranks++
		}
	}
	return makespan, comm / sim.Duration(ranks), sync / sim.Duration(ranks), true
}

// runTimeshare executes the §6.3 comparison on fresh clusters.
func runTimeshare(imbalance float64, seed int64) (timeshareResult, bool) {
	ccfg := hostos.DefaultClusterConfig()

	clSeq := hostos.NewCluster(seed+1, timeshareNodes, ccfg)
	seqT, seqComm, seqSync, ok := runApps(clSeq, imbalance, true)
	clSeq.Shutdown()
	if !ok {
		return timeshareResult{}, false
	}

	clShared := hostos.NewCluster(seed+1, timeshareNodes, ccfg)
	shT, shComm, shSync, ok := runApps(clShared, imbalance, false)
	clShared.Shutdown()
	if !ok {
		return timeshareResult{}, false
	}

	return timeshareResult{
		SharedMakespan:  shT,
		SequentialTotal: seqT,
		Ratio:           float64(shT) / float64(seqT),
		SharedCommMean:  shComm,
		SeqCommMean:     seqComm,
		SharedSyncMean:  shSync,
		SeqSyncMean:     seqSync,
	}, true
}

func timeshareRow(w io.Writer, p Params) error {
	header(w, "§6.3 — time-shared parallel applications")
	for _, imb := range []float64{0, 1.0} {
		res, ok := runTimeshare(imb, p.Seed)
		if !ok {
			return errors.New("timeshare run failed")
		}
		kind := "balanced"
		if imb > 0 {
			kind = "imbalanced"
		}
		fmt.Fprintf(w, "%-11s shared=%v sequential=%v ratio=%.3f (paper: <= 1.15; gains with imbalance)\n",
			kind, res.SharedMakespan, res.SequentialTotal, res.Ratio)
		fmt.Fprintf(w, "            comm/rank: shared=%v seq=%v; barrier wait: shared=%v seq=%v\n",
			res.SharedCommMean, res.SeqCommMean, res.SharedSyncMean, res.SeqSyncMean)
	}
	return nil
}
