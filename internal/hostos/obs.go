package hostos

import (
	"fmt"

	"virtnet/internal/netsim"
	"virtnet/internal/obs"
)

// EnableObs builds the cluster's observability layer and wires every
// existing layer into it: per-NI and per-driver counter sets, per-node NI
// gauges (free frames, staging-queue depths, back-pressured packets), and
// the network's aggregate and per-link counters. It must run before
// core.Attach opens bundles on the nodes — bundles capture the tracer and
// register their own counters at attach time.
//
// When opt.SampleEvery > 0 the flight recorder seeds its sampler with one
// draw from the engine PRNG; runs with tracing enabled are bit-reproducible
// against each other but take a different random stream than untraced runs.
// Metrics-only (SampleEvery == 0) draws nothing and perturbs nothing.
//
// Each shard gets its own observability layer on its own engine (one layer
// when there is one shard) — a node's counters register with its shard's
// registry and a node's sampled flights finalize into its shard's tracer
// arena, so neither is ever touched from two shards. A traced packet that
// crosses the fabric between shards hands its flight off at the boundary:
// the source shard finalizes its segment, only the 64-bit trace identity
// rides the exchange, and the destination shard's replica opens a
// continuation from its own arena (the tracer installed here via
// SetTracer). MergedSnapshot and MergedFlights
// stitch the per-shard streams back into one deterministic timeline — span
// ids carry the shard in their high bits, so the merge order is exactly
// (time, shard, seq). The fabric aggregate gauges (net.sent and friends)
// read every replica's counters, so snapshot only between runs, while the
// shards are parked at a barrier.
func (c *Cluster) EnableObs(opt obs.Options) *obs.Obs {
	c.shardObs = nil
	for s := 0; s < c.Shards(); s++ {
		opt.Shard = s
		o := obs.New(c.ShardEngine(s), len(c.Nodes), opt)
		c.shardObs = append(c.shardObs, o)
		c.ShardNet(s).SetTracer(o.T)
	}
	for _, n := range c.Nodes {
		sh := c.Fab.ShardOf(n.ID)
		o := c.shardObs[sh]
		n.Obs = o
		o.R.AddCounters(fmt.Sprintf("nic.n%d", int(n.ID)), &n.NIC.C)
		o.R.AddCounters(fmt.Sprintf("drv.n%d", int(n.ID)), &n.Driver.C)
		nic := n.NIC
		id := n.ID
		net := c.ShardNet(sh)
		o.R.AddGauge(fmt.Sprintf("nic.n%d.free_frames", int(n.ID)), func() float64 {
			return float64(nic.FreeFrames())
		})
		o.R.AddGauge(fmt.Sprintf("nic.n%d.inbound", int(n.ID)), func() float64 {
			return float64(nic.InboundLen())
		})
		o.R.AddGauge(fmt.Sprintf("net.n%d.blocked", int(n.ID)), func() float64 {
			return float64(net.Blocked(id))
		})
	}
	o0 := c.shardObs[0]
	o0.R.AddGauge("net.sent", func() float64 { s, _, _, _ := c.NetTotals(); return float64(s) })
	o0.R.AddGauge("net.delivered", func() float64 { _, d, _, _ := c.NetTotals(); return float64(d) })
	o0.R.AddGauge("net.dropped", func() float64 { _, _, d, _ := c.NetTotals(); return float64(d) })
	o0.R.AddGauge("net.corrupted", func() float64 { _, _, _, x := c.NetTotals(); return float64(x) })
	o0.R.AddFunc("link", func() []obs.KV {
		var out []obs.KV
		for _, lc := range c.Fab.PerLinkCounters() {
			if lc.Sent == 0 && lc.Dropped == 0 {
				continue
			}
			out = append(out,
				obs.KV{Name: lc.Name + ".sent", Value: float64(lc.Sent)},
				obs.KV{Name: lc.Name + ".delivered", Value: float64(lc.Delivered)},
				obs.KV{Name: lc.Name + ".dropped", Value: float64(lc.Dropped)})
		}
		return out
	})
	return o0
}

// Obs returns the cluster's observability layer, nil before EnableObs: shard
// 0's, which carries the fabric-wide aggregates.
func (c *Cluster) Obs() *obs.Obs { return c.ShardObs(0) }

// ShardObs returns shard s's observability layer (nil before EnableObs).
func (c *Cluster) ShardObs(s int) *obs.Obs {
	if len(c.shardObs) == 0 {
		return nil
	}
	return c.shardObs[s]
}

// MergedSnapshot snapshots every shard's registry and merges them in shard
// order — one deterministic metrics stream for the whole cluster. Call it
// only while the cluster is paused between runs.
func (c *Cluster) MergedSnapshot() obs.Snap {
	snaps := make([]obs.Snap, 0, len(c.shardObs))
	for _, o := range c.shardObs {
		snaps = append(snaps, o.R.Snapshot())
	}
	return obs.MergeSnaps(snaps)
}

// ShardOfNode maps a host id to the shard that owns it — the track-labeling
// callback trace exporters want.
func (c *Cluster) ShardOfNode(id int) int { return c.Fab.ShardOf(netsim.NodeID(id)) }

// Tracers returns every shard's flight-recorder arena in shard order (nil
// entries when tracing is off). Like MergedSnapshot, touch it only while
// the cluster is paused between runs.
func (c *Cluster) Tracers() []*obs.Tracer {
	out := make([]*obs.Tracer, 0, len(c.shardObs))
	for _, o := range c.shardObs {
		out = append(out, o.T)
	}
	return out
}

// MergedFlights merges every shard's retained flights into one timeline
// ordered by (time, shard, sequence) — byte-deterministic per (seed, shard
// count). Call only while the cluster is paused between runs.
func (c *Cluster) MergedFlights() []*obs.Flight {
	return obs.MergeFlights(c.Tracers())
}

// SweepOpenFlights finalizes every shard's still-open flights as dropped
// with the given reason, so an end-of-run analysis accounts for every
// started flight. Call only between runs.
func (c *Cluster) SweepOpenFlights(reason string) {
	for s, o := range c.shardObs {
		o.T.SweepOpen(reason, c.ShardEngine(s).Now())
	}
}
