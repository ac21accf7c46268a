package hostos

import (
	"errors"
	"fmt"

	"virtnet/internal/netsim"
	"virtnet/internal/nic"
	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

// ErrCrashed is returned by driver operations interrupted by a node crash.
var ErrCrashed = errors.New("hostos: node crashed")

// ErrSharded is returned by the constructors of layers that keep state shared
// across nodes (an mpi or splitc world, the migration directory, the glunix
// monitor) when the cluster runs more than one shard: their procs would run
// on different shard goroutines and race on it.
var ErrSharded = errors.New("hostos: layer needs a one-shard cluster")

// Node is one workstation: a host CPU with a local time-slicing scheduler,
// an NI, and the endpoint segment driver.
type Node struct {
	E      *sim.Engine
	ID     netsim.NodeID
	NIC    *nic.NIC
	Driver *Driver
	// Obs is the cluster's observability layer (nil unless Cluster.EnableObs
	// ran). Layers above (internal/core) pick it up when they attach, so it
	// must be enabled before bundles are created.
	Obs *obs.Obs

	cfg Config
	cpu *sim.Semaphore

	// procs tracks threads spawned on this node so a whole-node crash can
	// kill them; finished entries are compacted lazily.
	procs   []*sim.Proc
	crashed bool
}

// NewNode builds a workstation attached to net as host id.
func NewNode(e *sim.Engine, net *netsim.Network, id netsim.NodeID, ncfg nic.Config, ocfg Config) *Node {
	n := nic.New(e, net, id, ncfg)
	d := NewDriver(e, id, n, ocfg)
	return &Node{E: e, ID: id, NIC: n, Driver: d, cfg: ocfg, cpu: sim.NewSemaphore(1)}
}

// Spawn starts an application process/thread on this node.
func (n *Node) Spawn(name string, fn func(p *sim.Proc)) *sim.Proc {
	if len(n.procs) >= 64 {
		live := n.procs[:0]
		for _, q := range n.procs {
			if !q.Done() {
				live = append(live, q)
			}
		}
		n.procs = live
	}
	p := n.E.Spawn(name, fn)
	n.procs = append(n.procs, p)
	return p
}

// Crash fails the whole workstation at the current instant: every process
// and kernel thread dies mid-instruction, all resident endpoints and
// in-flight DMA are dropped, and the host's access link goes dark. Peers'
// messages toward the dead node go unacknowledged until their transport
// returns them to sender (§3.2). Must be invoked from event context or from
// a proc not running on this node.
func (n *Node) Crash() {
	if n.crashed {
		return
	}
	n.crashed = true
	for _, p := range n.procs {
		p.Kill()
	}
	n.procs = nil
	n.Driver.Crash()
	n.NIC.Crash()
	// Local scheduler state (run queue, held quanta) dies with the host.
	n.cpu = sim.NewSemaphore(1)
}

// Restart boots the workstation back up with a cold NI and an empty segment
// driver: endpoints that lived here are gone, and applications must recreate
// endpoints and republish names.
func (n *Node) Restart() {
	if !n.crashed {
		return
	}
	n.crashed = false
	n.NIC.Restart()
	n.Driver.Restart()
}

// Crashed reports whether the node is currently down.
func (n *Node) Crashed() bool { return n.crashed }

// Compute charges d of CPU time to the calling proc under the node's local
// scheduler. When other procs contend for the node's CPU, time is shared in
// Quantum slices (conventional local scheduling — the substrate for the
// implicit co-scheduling workloads of §6.3).
func (n *Node) Compute(p *sim.Proc, d sim.Duration) {
	if d <= 0 {
		return
	}
	for d > 0 {
		n.cpu.Acquire(p)
		q := d
		if q > n.cfg.Quantum {
			q = n.cfg.Quantum
		}
		p.Sleep(q)
		n.cpu.Release()
		d -= q
		if d > 0 {
			// Let an equal-priority proc run before taking the CPU back.
			p.Yield()
		}
	}
}

// Cluster is a collection of nodes on one network — the simulated NOW. It
// runs one engine per shard under Coord, synchronized by conservative
// lookahead, over the per-shard replicas of Fab. It has no engine or network
// of its own: a one-shard cluster is the N=1 case of the same object, not a
// different one (sim.Coordinator calls its single engine directly, and that
// is the only place that knows). Drive a cluster through the
// Run*/Now/EngineStats methods; inside a proc or an event, time, the PRNG and
// AfterFunc belong to the owning Node's engine.
type Cluster struct {
	Nodes []*Node

	// Coord and Fab are never nil.
	Coord *sim.Coordinator
	Fab   *netsim.Fabric

	// shardObs holds one observability layer per shard (EnableObs fills it).
	shardObs []*obs.Obs
}

// ClusterConfig bundles the three layers' configurations.
type ClusterConfig struct {
	Net netsim.Config
	NIC nic.Config
	OS  Config
}

// DefaultClusterConfig returns the calibrated 100-node NOW parameters.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		Net: netsim.DefaultConfig(),
		NIC: nic.DefaultConfig(),
		OS:  DefaultConfig(),
	}
}

// NewCluster builds n workstations on one shard.
func NewCluster(seed int64, n int, cfg ClusterConfig) *Cluster {
	return NewShardedCluster(seed, n, 1, cfg)
}

// NewShardedCluster builds n workstations across shards engines
// synchronized by conservative lookahead: each shard owns the hosts of a
// contiguous block of leaves (its NIs, drivers, and procs all run on that
// shard's engine) and cross-shard packets travel through the coordinator's
// exchange. Shard 0 keeps the master seed, so one shard draws the PRNG
// stream sim.NewEngine(seed) would.
func NewShardedCluster(seed int64, n, shards int, cfg ClusterConfig) *Cluster {
	coord := sim.NewCoordinator(seed, shards, netsim.Lookahead)
	fab := netsim.NewFabric(coord, cfg.Net, n)
	c := &Cluster{Coord: coord, Fab: fab}
	for i := 0; i < n; i++ {
		sh := fab.ShardOf(netsim.NodeID(i))
		c.Nodes = append(c.Nodes, NewNode(coord.Engine(sh), fab.Shard(sh), netsim.NodeID(i), cfg.NIC, cfg.OS))
	}
	return c
}

// Shards returns the number of engine shards.
func (c *Cluster) Shards() int { return c.Coord.Shards() }

// OneShard returns nil on a one-shard cluster and an error matching
// ErrSharded, naming layer, otherwise.
func (c *Cluster) OneShard(layer string) error {
	if c.Shards() > 1 {
		return fmt.Errorf("%s on %d shards: %w", layer, c.Shards(), ErrSharded)
	}
	return nil
}

// ShardEngine returns shard s's engine.
func (c *Cluster) ShardEngine(s int) *sim.Engine { return c.Coord.Engine(s) }

// ShardNet returns shard s's network replica.
func (c *Cluster) ShardNet(s int) *netsim.Network { return c.Fab.Shard(s) }

// EngineFor returns the engine that owns node id — where events touching
// that node's state must be scheduled.
func (c *Cluster) EngineFor(id netsim.NodeID) *sim.Engine { return c.Nodes[id].E }

// NetFor returns the network replica that owns node id's access links.
func (c *Cluster) NetFor(id netsim.NodeID) *netsim.Network {
	return c.Fab.Shard(c.Fab.ShardOf(id))
}

// RunFor advances the cluster d of virtual time.
func (c *Cluster) RunFor(d sim.Duration) { c.Coord.RunFor(d) }

// RunUntil advances the cluster to virtual time t.
func (c *Cluster) RunUntil(t sim.Time) { c.Coord.RunUntil(t) }

// RunUntilDone is the one drive loop: it advances the cluster a step at a
// time until done reports true (true) or the virtual clock reaches deadline
// with done still false (false). done is asked before every step, so a
// condition that already holds advances nothing; it runs between steps, while
// every engine is parked, so it may read what the procs wrote.
func (c *Cluster) RunUntilDone(step sim.Duration, deadline sim.Time, done func() bool) bool {
	for !done() {
		if c.Now() >= deadline {
			return false
		}
		c.RunFor(step)
	}
	return true
}

// Now returns the cluster's virtual time (the last barrier when there is
// more than one shard).
func (c *Cluster) Now() sim.Time { return c.Coord.Now() }

// EngineStats returns engine activity counters summed across shards.
func (c *Cluster) EngineStats() sim.Stats { return c.Coord.Stats() }

// NetTotals returns fabric-wide sent/delivered/dropped/corrupted counts.
func (c *Cluster) NetTotals() (sent, delivered, dropped, corrupted int64) {
	return c.Fab.Totals()
}

// Shutdown stops all simulated threads.
func (c *Cluster) Shutdown() {
	for _, n := range c.Nodes {
		n.NIC.Stop()
	}
	c.Coord.Shutdown()
}
