package glunix

import (
	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/netsim"
	"virtnet/internal/nic"
	"virtnet/internal/sim"
)

// Heartbeat handler indices.
const (
	hBeat    = 1 // request: node -> master "I am alive"
	hBeatAck = 2 // reply: master -> node (restores the beat credit)
)

// NameService is the part of the cluster name service the monitor needs:
// dropping every binding that points at a dead node so peers' translation
// refreshes fail fast (return to sender) instead of chasing a corpse. The
// migration subsystem's Directory implements it.
type NameService interface {
	DropNode(node netsim.NodeID) int
}

// Failure detection. Every beatInterval each node beats; beatMisses missed
// beats in a row (50 ms of silence, an order of magnitude past the default
// firmware-reboot outage) declare it dead. The silence threshold must exceed
// benign outages or the monitor false-positives. beatKey protects the
// heartbeat endpoints' virtual network. A node declared dead stays dead.
const (
	beatInterval          = 10 * sim.Millisecond
	beatMisses            = 5
	beatKey      core.Key = 0x68656274 // "hebt"

	home = 0 // the master's node
)

// Monitor is the GLUnix health service: every node runs a beater thread
// that sends an Active Message heartbeat to the master each interval; the
// master (on the home node, assumed outside the fault domain like the
// GLUnix master of Fig. 1) scans for silent nodes and declares them dead —
// removing them from the scheduler (which requeues their gang jobs),
// dropping their name-service bindings so redirected traffic returns to
// sender promptly, and running registered OnDead hooks so services can
// respawn or rebalance replicas.
type Monitor struct {
	c     *hostos.Cluster
	sched *Scheduler
	names NameService

	master   *core.Endpoint
	lastBeat []sim.Time
	deadN    []bool
	onDead   []func(p *sim.Proc, node int)

	// Deaths counts nodes declared dead.
	Deaths int
	// Beats counts heartbeats received by the master.
	Beats int64
}

// NewMonitor starts the health service with its master on node 0. sched
// and names may each be nil (detection only). Beaters start on every node
// except home; the master scan thread runs on home. The master's tables (and
// the scheduler's free list behind them) are written from every node's
// threads, so a cluster of more than one shard gets hostos.ErrSharded.
func NewMonitor(c *hostos.Cluster, sched *Scheduler, names NameService) (*Monitor, error) {
	if err := c.OneShard("glunix: monitor"); err != nil {
		return nil, err
	}
	m := &Monitor{
		c:        c,
		sched:    sched,
		names:    names,
		lastBeat: make([]sim.Time, len(c.Nodes)),
		deadN:    make([]bool, len(c.Nodes)),
	}
	now := c.Nodes[home].E.Now()
	for i := range m.lastBeat {
		m.lastBeat[i] = now
	}
	bun := core.Attach(c.Nodes[home])
	master, err := bun.NewEndpoint(beatKey, 4)
	if err != nil {
		return nil, err
	}
	m.master = master
	if err := master.SetHandler(hBeat, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
		n := int(args[0])
		if n >= 0 && n < len(m.lastBeat) {
			m.lastBeat[n] = p.Now()
			m.Beats++
		}
		_ = tok.Reply(p, hBeatAck, args) // credit back to the beater
	}); err != nil {
		return nil, err
	}
	for i := range c.Nodes {
		if i == home {
			continue
		}
		if err := m.startBeater(i); err != nil {
			return nil, err
		}
	}
	c.Nodes[home].Spawn("healthmon", func(p *sim.Proc) {
		const silence = beatInterval * beatMisses
		for {
			m.master.Poll(p)
			now := p.Now()
			for n := range m.lastBeat {
				if n == home || m.deadN[n] {
					continue
				}
				if now.Sub(m.lastBeat[n]) > silence {
					m.declareDead(n)
				}
			}
			p.Sleep(beatInterval / 2)
		}
	})
	return m, nil
}

// startBeater spawns node i's heartbeat thread. The proc is tracked by the
// node, so a crash kills it and the beats stop — which is the signal.
func (m *Monitor) startBeater(i int) error {
	node := m.c.Nodes[i]
	bun := core.Attach(node)
	ep, err := bun.NewEndpoint(beatKey, 4)
	if err != nil {
		return err
	}
	if err := ep.SetHandler(hBeatAck, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {}); err != nil {
		return err
	}
	ep.SetReturnHandler(func(p *sim.Proc, reason nic.NackReason, _, _ int, args [4]uint64, _ []byte) {
		// The master is unreachable from here; keep beating — the fabric may
		// recover, and the master judges us, not the reverse.
	})
	if err := ep.Map(0, m.master.Name(), beatKey); err != nil {
		return err
	}
	node.Spawn("beater", func(p *sim.Proc) {
		for {
			_ = ep.Request(p, 0, hBeat, [4]uint64{uint64(i)})
			next := p.Now().Add(beatInterval)
			for p.Now() < next {
				ep.Poll(p)
				p.Sleep(beatInterval / 4)
			}
		}
	})
	return nil
}

// declareDead runs the recovery sequence for node n.
func (m *Monitor) declareDead(n int) {
	m.deadN[n] = true
	m.Deaths++
	if m.sched != nil {
		m.sched.NodeDead(n)
	}
	if m.names != nil {
		m.names.DropNode(netsim.NodeID(n))
	}
	for _, h := range m.onDead {
		h := h
		m.c.Nodes[home].Spawn("ondead", func(p *sim.Proc) { h(p, n) })
	}
}

// OnDead registers a recovery hook; it runs in a fresh thread on the home
// node each time a node is declared dead (respawn a replica, rebalance via
// migration, alert an operator).
func (m *Monitor) OnDead(h func(p *sim.Proc, node int)) {
	m.onDead = append(m.onDead, h)
}

// Dead reports whether node n is currently declared dead.
func (m *Monitor) Dead(n int) bool { return m.deadN[n] }
