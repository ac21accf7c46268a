package bench

import (
	"errors"
	"fmt"
	"io"

	"virtnet/internal/hostos"
	"virtnet/internal/sim"
	"virtnet/internal/splitc"
)

// timeshareConfig parameterizes the §6.3 experiment: several Split-C-style
// parallel applications time-share one partition of the cluster, relying on
// implicit co-scheduling (conventional local schedulers; the virtual network
// subsystem adapts the resident set to the active endpoints).
type timeshareConfig struct {
	Nodes int // partition size (paper: 16)
	Apps  int // concurrently running applications
	Iters int // bulk-synchronous iterations per application
	// Compute is the per-iteration computation per rank.
	Compute sim.Duration
	// MsgBytes is the neighbor-exchange volume per iteration per rank.
	MsgBytes int
	// Imbalance skews per-rank compute: rank r computes
	// Compute * (1 + Imbalance*r/(Nodes-1)). The paper reports time-sharing
	// improving throughput up to 20% for imbalanced workloads.
	Imbalance float64
	Seed      int64
}

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

// appBody returns the bulk-synchronous program body.
func appBody(cfg timeshareConfig) func(p *sim.Proc, r *splitc.Rank) {
	return func(p *sim.Proc, r *splitc.Rank) {
		n := r.Size()
		buf := make([]byte, cfg.MsgBytes)
		work := float64(cfg.Compute)
		if cfg.Imbalance > 0 && n > 1 {
			work *= 1 + cfg.Imbalance*float64(r.ID())/float64(n-1)
		}
		for it := 0; it < cfg.Iters; it++ {
			r.Node().Compute(p, sim.Duration(work))
			next := (r.ID() + 1) % n
			r.Store(p, next, 0, buf)
			r.StoreSync(p)
			r.Barrier(p)
		}
	}
}

// runApps launches k applications (each its own virtual network over the
// same nodes) with the given start offsets, and returns the makespan and
// mean comm time per app.
func runApps(cl *hostos.Cluster, cfg timeshareConfig, k int, sequential bool) (sim.Duration, sim.Duration, sim.Duration, bool) {
	start := cl.Now()
	var worlds []*splitc.World
	for a := 0; a < k; a++ {
		w, err := splitc.NewWorld(cl, cfg.Nodes, cfg.MsgBytes+64, nil)
		if err != nil {
			return 0, 0, 0, false
		}
		worlds = append(worlds, w)
	}
	body := appBody(cfg)
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
func runTimeshare(cfg timeshareConfig) (timeshareResult, bool) {
	ccfg := hostos.DefaultClusterConfig()

	clSeq := hostos.NewCluster(cfg.Seed+1, cfg.Nodes, ccfg)
	seqT, seqComm, seqSync, ok := runApps(clSeq, cfg, cfg.Apps, true)
	clSeq.Shutdown()
	if !ok {
		return timeshareResult{}, false
	}

	clShared := hostos.NewCluster(cfg.Seed+1, cfg.Nodes, ccfg)
	shT, shComm, shSync, ok := runApps(clShared, cfg, cfg.Apps, false)
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
		res, ok := runTimeshare(timeshareConfig{
			Nodes: 16, Apps: 2, Iters: 40,
			Compute: 2 * sim.Millisecond, MsgBytes: 2048,
			Imbalance: imb, Seed: p.Seed,
		})
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
