// Package migrate implements live endpoint migration: a cluster-wide name
// service that makes endpoint names truly opaque (§3.1 — a name is a
// binding to a location, not an identity), plus the protocol that moves a
// live endpoint between nodes while traffic is in flight.
//
// The name service (Directory) resolves an endpoint id to the node
// currently hosting it, with a version counter per name so stale and fresh
// bindings are distinguishable. It models the GLUnix master's registry
// (Fig. 1): a single authoritative map that every node's library consults.
//
// A move proceeds in five phases, each leaning on machinery the paper
// already requires:
//
//  1. Freeze — the source library detaches the application handle
//     (operations fail with core.ErrMoved) so no new sends enter.
//  2. Quiesce — the segment driver drains the endpoint's send queues and
//     in-flight packets through the NI's quiescing unload (§5.3), leaving a
//     self-contained image in host memory.
//  3. Transfer — the image and library state travel to the destination as
//     ordinary bulk Active Message traffic between per-node migration
//     agents, enjoying the same flow control and exactly-once delivery as
//     user traffic.
//  4. Install — the destination driver adopts the image under its original
//     globally-unique id and key, rebinding its logical channels to the new
//     NI, and publishes the new location in the Directory.
//  5. Redirect — the source NI's forwarding entry NACKs stale arrivals with
//     NackMoved; the sender's library treats the bounce as §3.2's
//     return-to-sender, refreshes its translation from the Directory, and
//     re-issues the message verbatim toward the new node. The preserved
//     end-to-end message id keeps delivery exactly-once even when an
//     earlier attempt actually landed.
//
// The ordering invariant that prevents redirect loops: the new location is
// published (phase 4) strictly before the forwarding entry is installed
// (phase 5), so every bounce resolves to a location at least as fresh as
// the node that bounced it.
package migrate

import (
	"errors"
	"fmt"
	"sort"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/netsim"
	"virtnet/internal/nic"
	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

// Agent endpoint handler indices.
const (
	hChunk    = 1 // request: one chunk of a state transfer
	hChunkAck = 2 // reply: chunk received (and possibly committed)
)

// agentKey protects the migration agents' virtual network.
const agentKey = 0x6d696772 // "migr"

// Directory is the cluster-wide name service: endpoint id → current node,
// with a version that increments on every rebinding. It implements
// core.Resolver. Endpoints that never migrated are absent — resolution
// falls back to the location hint carried in the name.
type Directory struct {
	entries map[int]*dirEntry
	// C counts resolves and publishes.
	C obs.Counters
}

type dirEntry struct {
	node netsim.NodeID
	ver  uint64
}

// NewDirectory creates an empty name service.
func NewDirectory() *Directory {
	return &Directory{entries: make(map[int]*dirEntry)}
}

// Resolve implements core.Resolver.
func (d *Directory) Resolve(ep int) (netsim.NodeID, bool) {
	d.C.Inc("dir.resolve")
	e, ok := d.entries[ep]
	if !ok {
		return 0, false
	}
	return e.node, true
}

// Publish records that endpoint ep now lives on node, bumping the name's
// version.
func (d *Directory) Publish(ep int, node netsim.NodeID) {
	d.C.Inc("dir.publish")
	e, ok := d.entries[ep]
	if !ok {
		e = &dirEntry{}
		d.entries[ep] = e
	}
	e.node = node
	e.ver++
}

// Forget removes a name (endpoint freed for good).
func (d *Directory) Forget(ep int) { delete(d.entries, ep) }

// DropNode removes every binding that points at node (the node died and its
// endpoints with it), so resolution falls back to names' location hints or
// fails cleanly instead of steering traffic at a corpse. It returns the
// number of bindings dropped.
func (d *Directory) DropNode(node netsim.NodeID) int {
	var ids []int
	for id, e := range d.entries {
		if e.node == node {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		delete(d.entries, id)
	}
	d.C.Add("dir.drop_node", int64(len(ids)))
	return len(ids)
}

// Version returns the current version of a name (0 if never published).
func (d *Directory) Version(ep int) uint64 {
	if e, ok := d.entries[ep]; ok {
		return e.ver
	}
	return 0
}

// MoveStats reports one completed migration.
type MoveStats struct {
	// Blackout is how long the endpoint was unable to accept traffic: from
	// freeze at the source to installation at the destination. (Messages
	// arriving during the blackout are not lost — they are NACKed and
	// retried or redirected by their senders.)
	Blackout sim.Duration
	// Bytes and Chunks describe the state transfer.
	Bytes  int
	Chunks int
}

// xfer tracks one in-progress state transfer.
type xfer struct {
	state     *core.MigrationState
	epID      int
	chunks    int
	got       int
	committed bool
	installed *core.Endpoint
	installAt sim.Time
}

// managedEP is one entry of the service's endpoint registry.
type managedEP struct {
	handle *core.Endpoint
	onSwap func(*core.Endpoint)
}

// Service is the cluster migration service: the Directory plus one
// migration agent per node, wired into their own virtual network.
type Service struct {
	c   *hostos.Cluster
	Dir *Directory

	mgrs []*Manager

	nextXfer uint64
	xfers    map[uint64]*xfer
	managed  map[int]*managedEP
}

// Manager is the per-node migration agent: an endpoint that receives state
// transfers, a daemon thread that services it, and a bundle into which
// migrated endpoints are installed.
type Manager struct {
	s     *Service
	node  *hostos.Node
	bun   *core.Bundle // agent bundle, polled by the daemon
	agent *core.Endpoint
	// install receives migrated-in endpoints; the application polls them.
	install *core.Bundle
	cond    *sim.Cond
}

// NewService creates the migration service for every node of the cluster:
// per-node agent endpoints joined into a virtual network, daemons waiting
// on their event masks (§3.3), and an empty name service. Every node's agent
// shares the directory and the transfer table, so a cluster of more than one
// shard gets hostos.ErrSharded.
func NewService(c *hostos.Cluster) (*Service, error) {
	if err := c.OneShard("migrate: service"); err != nil {
		return nil, err
	}
	s := &Service{
		c:       c,
		Dir:     NewDirectory(),
		xfers:   make(map[uint64]*xfer),
		managed: make(map[int]*managedEP),
	}
	agents := make([]*core.Endpoint, len(c.Nodes))
	for i, node := range c.Nodes {
		m := &Manager{s: s, node: node, cond: new(sim.Cond)}
		m.bun = core.Attach(node)
		m.bun.SetResolver(s.Dir)
		m.install = core.Attach(node)
		m.install.SetResolver(s.Dir)
		ep, err := m.bun.NewEndpoint(agentKey, len(c.Nodes))
		if err != nil {
			return nil, err
		}
		m.agent = ep
		agents[i] = ep
		if err := ep.SetHandler(hChunk, m.onChunk); err != nil {
			return nil, err
		}
		if err := ep.SetHandler(hChunkAck, m.onAck); err != nil {
			return nil, err
		}
		ep.SetEventMask(true)
		s.mgrs = append(s.mgrs, m)
	}
	if err := core.MakeVirtualNetwork(agents); err != nil {
		return nil, err
	}
	for i, node := range c.Nodes {
		m := s.mgrs[i]
		node.Spawn(fmt.Sprintf("migrated%d", i), func(p *sim.Proc) {
			for {
				m.bun.Wait(p)
				m.bun.Poll(p)
			}
		})
	}
	return s, nil
}

// Manage registers ep with the service's registry so Endpoint follows it
// across moves; onSwap, when non-nil, is invoked with the reincarnated
// handle after each move so the application can retarget its threads.
func (s *Service) Manage(ep *core.Endpoint, onSwap func(*core.Endpoint)) {
	s.managed[ep.Segment().EP.ID] = &managedEP{handle: ep, onSwap: onSwap}
}

// Endpoint returns the current live handle for a managed endpoint id.
func (s *Service) Endpoint(epID int) (*core.Endpoint, bool) {
	m, ok := s.managed[epID]
	if !ok {
		return nil, false
	}
	return m.handle, true
}

// ErrDestUnreachable reports a move abandoned because the destination node
// stopped responding; the endpoint was reincarnated back on the source node
// (the service's managed-handle registry points at the live handle).
var ErrDestUnreachable = errors.New("migrate: destination unreachable, move aborted")

// commitTimeout bounds how long Move waits for the destination's commit
// acknowledgment before aborting (well past any transport-level recovery).
const commitTimeout = 400 * sim.Millisecond

// Move live-migrates ep to node dst. It must run in a proc on the source
// node. On success the returned stats carry the reincarnated handle; the
// old handle is dead (core.ErrMoved).
func (s *Service) Move(p *sim.Proc, ep *core.Endpoint, dst netsim.NodeID) (*MoveStats, error) {
	if ep.Moved() {
		return nil, core.ErrMoved
	}
	src := ep.Bundle().Node
	if src.ID == dst {
		return nil, fmt.Errorf("migrate: endpoint already on node %d", dst)
	}
	if int(dst) < 0 || int(dst) >= len(s.mgrs) {
		return nil, fmt.Errorf("migrate: no node %d", dst)
	}
	if s.c.Nodes[dst].Crashed() {
		return nil, ErrDestUnreachable
	}
	srcMgr := s.mgrs[src.ID]
	seg := ep.Segment()
	epID := seg.EP.ID

	// Phase 1+2: freeze the library handle, then drain and unload the NI
	// side. From here until install, arrivals for the endpoint are NACKed
	// transiently (not-resident) and retried by their senders.
	freezeAt := p.Now()
	ep.Freeze(p)
	if err := src.Driver.BeginMigration(p, seg); err != nil {
		return nil, err
	}
	state := ep.Extract()

	// Phase 3: ship the state to the destination agent as bulk AM traffic.
	// The simulation passes the state object out-of-band and models the
	// transfer cost with real payload bytes on the wire.
	bytes := state.Bytes()
	chunks := (bytes + nic.MTU - 1) / nic.MTU
	s.nextXfer++
	id := s.nextXfer
	x := &xfer{state: state, epID: epID, chunks: chunks}
	s.xfers[id] = x
	for i := 0; i < chunks; i++ {
		sz := nic.MTU
		if i == chunks-1 {
			sz = bytes - (chunks-1)*nic.MTU
		}
		err := srcMgr.agent.RequestBulk(p, int(dst), hChunk, make([]byte, sz),
			[4]uint64{id, uint64(i), uint64(chunks), uint64(epID)})
		if err != nil {
			// The destination agent is unreachable (returned to sender):
			// abandon the move and bring the endpoint back up locally.
			return s.abortMove(srcMgr, seg, x, id)
		}
	}

	// Phase 4 happens at the destination (install + publish); wait for the
	// commit acknowledgment — bounded, in case the destination dies between
	// accepting the last chunk and committing.
	deadline := p.Now().Add(commitTimeout)
	for !x.committed {
		srcMgr.cond.WaitTimeout(p, 50*sim.Millisecond)
		if !x.committed && p.Now() >= deadline {
			return s.abortMove(srcMgr, seg, x, id)
		}
	}

	// Phase 5: only now — with the new location published — install the
	// forwarding entry, so every bounce resolves to a fresher binding.
	src.Driver.CompleteMigration(seg)

	if m, ok := s.managed[epID]; ok {
		m.handle = x.installed
		if m.onSwap != nil {
			m.onSwap(x.installed)
		}
	}
	delete(s.xfers, id)
	return &MoveStats{
		Blackout: x.installAt.Sub(freezeAt),
		Bytes:    bytes,
		Chunks:   chunks,
	}, nil
}

// abortMove abandons a transfer whose destination stopped responding and
// reincarnates the already-extracted endpoint back on the source node, so
// the service's managed registry keeps pointing at a live handle. Callers
// always get ErrDestUnreachable; recovered handles are found via Endpoint.
func (s *Service) abortMove(srcMgr *Manager, seg *hostos.Segment, x *xfer, id uint64) (*MoveStats, error) {
	delete(s.xfers, id)
	src := srcMgr.node
	if src.Crashed() {
		return nil, hostos.ErrCrashed
	}
	src.Driver.AbortMigration(seg)
	ep2, err := srcMgr.install.Install(x.state)
	if err != nil {
		return nil, fmt.Errorf("migrate: abort reinstall of endpoint %d: %w", x.epID, err)
	}
	s.Dir.Publish(x.epID, src.ID)
	if m, ok := s.managed[x.epID]; ok {
		m.handle = ep2
		if m.onSwap != nil {
			m.onSwap(ep2)
		}
	}
	return nil, ErrDestUnreachable
}

// onChunk receives one transfer chunk at the destination agent. When the
// last chunk arrives the endpoint is installed and published; the final
// reply carries the commit.
func (m *Manager) onChunk(p *sim.Proc, tok *core.Token, args [4]uint64, payload []byte) {
	x, ok := m.s.xfers[args[0]]
	if !ok {
		// Unknown transfer (should not happen; transfers are created before
		// their first chunk is sent). Reply uncommitted so the source waits
		// visibly rather than losing state.
		_ = tok.Reply(p, hChunkAck, [4]uint64{args[0], 0, 0, 0})
		return
	}
	x.got++
	committed := uint64(0)
	if x.got == x.chunks {
		ep, err := m.install.Install(x.state)
		if err != nil {
			panic(fmt.Sprintf("migrate: install of endpoint %d on node %d: %v", x.epID, m.node.ID, err))
		}
		m.s.Dir.Publish(x.epID, m.node.ID)
		x.installed = ep
		x.installAt = p.Now()
		x.committed = true
		committed = 1
	}
	_ = tok.Reply(p, hChunkAck, [4]uint64{args[0], committed, 0, 0})
}

// onAck receives chunk acknowledgments at the source agent; the commit ack
// wakes the waiting Move.
func (m *Manager) onAck(p *sim.Proc, tok *core.Token, args [4]uint64, payload []byte) {
	if args[1] == 1 {
		m.cond.Broadcast()
	}
}
