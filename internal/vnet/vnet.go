// Package vnet is the multi-tenant tenancy layer over the simulated fabric:
// named virtual networks carved out of the shared NI endpoint space (§2–§3).
// A tenant owns one or more virtual networks; each network gets a distinct
// protection key, so the NI's per-message key check (§3.2) is the hardware
// enforcement boundary — a message posted across networks bounces with
// NackBadKey and is returned to the sender. On top of that the layer adds
// the policy the paper leaves to the OS:
//
//   - per-tenant endpoint quotas and admission control against the NI's
//     endpoint-frame capacity (bounded overcommit, §5);
//   - metered WRR shares: a tenant's share weight scales the loiter budget
//     the NI firmware grants its endpoints, so send bandwidth under
//     saturation divides in share proportion;
//   - name-service integration: every endpoint is published in the
//     migrate.Directory, so tenant traffic survives live migration;
//   - per-tenant fault scoping: a tenant may only inject node-scoped
//     faults, and only onto nodes it holds a NIC on.
//
// Cross-network communication is refused at two levels: the library level
// (MapPeer returns *IsolationError before anything is posted) and the
// fabric level (a forged post with the wrong key is NACKed by the remote
// NI's key check and comes back as a return-to-sender, which the layer
// counts and classifies as an isolation denial).
package vnet

import (
	"errors"
	"fmt"
	"sort"

	"virtnet/internal/core"
	"virtnet/internal/fault"
	"virtnet/internal/hostos"
	"virtnet/internal/migrate"
	"virtnet/internal/nic"
	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

// Typed errors. IsolationError is a concrete type so callers can assert on
// it; the sentinel values support errors.Is chains.
var (
	// ErrQuota: the tenant's endpoint quota is exhausted.
	ErrQuota = errors.New("vnet: tenant endpoint quota exhausted")
	// ErrAdmission: the target node's NI endpoint capacity (frames ×
	// overcommit factor) is exhausted.
	ErrAdmission = errors.New("vnet: NI endpoint capacity exhausted")
	// ErrNoNIC: the tenant holds no NIC on the requested node.
	ErrNoNIC = errors.New("vnet: tenant holds no NIC on node")
	// ErrFaultScope: the fault kind cannot be scoped to a single tenant
	// (fabric-wide faults are an operator action, not a tenant one).
	ErrFaultScope = errors.New("vnet: fault kind not tenant-scopable")
	// ErrNotFound: no such tenant / network / endpoint.
	ErrNotFound = errors.New("vnet: no such object")
	// ErrExists: the named object already exists.
	ErrExists = errors.New("vnet: object already exists")
)

// IsolationError reports a refused cross-network communication attempt.
type IsolationError struct {
	// From and To name the endpoints involved as "tenant/network/endpoint".
	From, To string
}

func (e *IsolationError) Error() string {
	return fmt.Sprintf("vnet: isolation: %s cannot reach %s (different virtual network)", e.From, e.To)
}

// Is lets errors.Is(err, ErrIsolation) match any IsolationError.
func (e *IsolationError) Is(target error) bool { return target == ErrIsolation }

// ErrIsolation is the sentinel every IsolationError matches via errors.Is.
var ErrIsolation = errors.New("vnet: cross-network communication denied")

// Well-known handler indices installed on every vnet endpoint. Indices
// above them are free for applications.
const (
	// HEcho is the echo request handler: it replies with the same args.
	HEcho = 1
	// HEchoReply is the index echo replies carry; no handler is installed
	// on it, so a reply is delivered and counted, then dropped.
	HEchoReply = 2
)

// Tenancy defaults: the endpoint quota and WRR share weight of a tenant
// created without them, and the translation-table size of every vnet
// endpoint.
const (
	defaultQuota = 16
	defaultShare = 1
	tableSize    = 64
)

// Manager is the tenancy layer over one cluster. All mutating calls must be
// made from the simulation's controlling goroutine (between engine runs) or
// from sim procs; the manager adds no locking of its own.
type Manager struct {
	Cluster *hostos.Cluster
	// Dir is the cluster name service; every vnet endpoint is published in
	// it, and every vnet bundle resolves through it.
	Dir *migrate.Directory
	// overcommit bounds endpoints admitted per node at Frames×overcommit.
	overcommit int

	tenants map[string]*Tenant
	order   []string
	perNode []int // endpoints admitted per node, across tenants
	nextKey core.Key

	// C counts admissions, rejections, isolation denials, fault injections.
	C obs.Counters
}

// NewManager builds the tenancy layer over c, admitting at most
// Frames×overcommit endpoints per node (overcommit < 1 counts as 1). If the
// cluster's observability layer is enabled (Cluster.EnableObs before this
// call), the manager registers its counters and a per-tenant metering
// section with it.
func NewManager(c *hostos.Cluster, overcommit int) *Manager {
	m := &Manager{
		Cluster:    c,
		Dir:        migrate.NewDirectory(),
		overcommit: max(overcommit, 1),
		tenants:    make(map[string]*Tenant),
		perNode:    make([]int, len(c.Nodes)),
		nextKey:    0x766e6574 << 16, // "vnet" tag; low bits count networks
	}
	if o := c.Obs(); o != nil {
		o.R.AddCounters("vnet", &m.C)
		o.R.AddFunc("vnet.tenant", m.meterKVs)
	}
	return m
}

// NodeCap is the per-node endpoint admission bound (frames × overcommit).
func (m *Manager) NodeCap() int {
	return m.Cluster.Nodes[0].NIC.Config().Frames * m.overcommit
}

// NodeLoad reports endpoints admitted on node across all tenants.
func (m *Manager) NodeLoad(node int) int { return m.perNode[node] }

// CreateTenant registers a tenant. quota ≤ 0 or share ≤ 0 take the
// defaults, 16 endpoints and share 1.
func (m *Manager) CreateTenant(name string, quota, share int) (*Tenant, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: empty tenant name", ErrNotFound)
	}
	if _, ok := m.tenants[name]; ok {
		return nil, fmt.Errorf("%w: tenant %q", ErrExists, name)
	}
	if quota <= 0 {
		quota = defaultQuota
	}
	if share <= 0 {
		share = defaultShare
	}
	t := &Tenant{
		m:     m,
		name:  name,
		quota: quota,
		share: share,
		nets:  make(map[string]*Network),
	}
	m.tenants[name] = t
	m.order = append(m.order, name)
	m.C.Inc("tenant.create")
	return t, nil
}

// Tenant returns the named tenant.
func (m *Manager) Tenant(name string) (*Tenant, error) {
	t, ok := m.tenants[name]
	if !ok {
		return nil, fmt.Errorf("%w: tenant %q", ErrNotFound, name)
	}
	return t, nil
}

// Tenants returns tenants in creation order.
func (m *Manager) Tenants() []*Tenant {
	out := make([]*Tenant, 0, len(m.order))
	for _, n := range m.order {
		out = append(out, m.tenants[n])
	}
	return out
}

// DeleteTenant tears down the tenant and all its networks. p drives the
// endpoint quiesce/unload protocol.
func (m *Manager) DeleteTenant(p *sim.Proc, name string) error {
	t, ok := m.tenants[name]
	if !ok {
		return fmt.Errorf("%w: tenant %q", ErrNotFound, name)
	}
	for _, nw := range t.Networks() {
		if err := t.DeleteNetwork(p, nw.name); err != nil {
			return err
		}
	}
	delete(m.tenants, name)
	for i, n := range m.order {
		if n == name {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.C.Inc("tenant.delete")
	return nil
}

// meterKVs emits per-tenant metering in creation order: endpoints in use,
// NI-serviced messages, and handler deliveries. Deleted endpoints' totals
// are retained in the tenant's base so churn does not lose history.
func (m *Manager) meterKVs() []obs.KV {
	var out []obs.KV
	for _, t := range m.Tenants() {
		sm, sb, del := t.Serviced()
		out = append(out,
			obs.KV{Name: t.name + ".eps", Value: float64(t.eps)},
			obs.KV{Name: t.name + ".serviced", Value: float64(sm)},
			obs.KV{Name: t.name + ".serviced_bytes", Value: float64(sb)},
			obs.KV{Name: t.name + ".delivered", Value: float64(del)},
		)
	}
	return out
}

// Tenant is one isolation principal: it owns networks, a quota, a share
// weight, and a set of NICs (nodes it may place endpoints on).
type Tenant struct {
	m     *Manager
	name  string
	quota int
	share int

	nics   []int // nodes granted via AddNIC, in grant order
	rrNext int   // round-robin cursor for auto-placement

	nets     map[string]*Network
	netOrder []string
	eps      int // endpoints in use

	// baseServiced/baseBytes/baseDelivered accumulate totals of deleted
	// endpoints so per-tenant meters survive churn.
	baseServiced, baseBytes, baseDelivered int64
}

// Name, Quota, Share, EndpointsInUse expose tenant state.
func (t *Tenant) Name() string        { return t.name }
func (t *Tenant) Quota() int          { return t.quota }
func (t *Tenant) Share() int          { return t.share }
func (t *Tenant) EndpointsInUse() int { return t.eps }

// NICs returns the nodes the tenant holds NICs on, in grant order.
func (t *Tenant) NICs() []int { return append([]int(nil), t.nics...) }

// AddNIC grants the tenant placement on node. Mirrors ncproxy's AddNIC: the
// grant itself consumes no frames; endpoint creation does.
func (t *Tenant) AddNIC(node int) error {
	if node < 0 || node >= len(t.m.Cluster.Nodes) {
		return fmt.Errorf("%w: node %d out of range", ErrNotFound, node)
	}
	for _, n := range t.nics {
		if n == node {
			return fmt.Errorf("%w: tenant %q already holds a NIC on node %d", ErrExists, t.name, node)
		}
	}
	t.nics = append(t.nics, node)
	t.m.C.Inc("nic.grant")
	return nil
}

// hasNIC reports whether the tenant holds a NIC on node.
func (t *Tenant) hasNIC(node int) bool {
	for _, n := range t.nics {
		if n == node {
			return true
		}
	}
	return false
}

// CreateNetwork creates a named virtual network owned by the tenant, with a
// fresh protection key nothing else on the fabric shares.
func (t *Tenant) CreateNetwork(name string) (*Network, error) {
	if _, ok := t.nets[name]; ok {
		return nil, fmt.Errorf("%w: network %q/%q", ErrExists, t.name, name)
	}
	t.m.nextKey++
	nw := &Network{
		t:    t,
		name: name,
		key:  t.m.nextKey,
		eps:  make(map[string]*Endpoint),
	}
	t.nets[name] = nw
	t.netOrder = append(t.netOrder, name)
	t.m.C.Inc("net.create")
	return nw, nil
}

// Network returns the named network.
func (t *Tenant) Network(name string) (*Network, error) {
	nw, ok := t.nets[name]
	if !ok {
		return nil, fmt.Errorf("%w: network %q/%q", ErrNotFound, t.name, name)
	}
	return nw, nil
}

// Networks returns the tenant's networks in creation order.
func (t *Tenant) Networks() []*Network {
	out := make([]*Network, 0, len(t.netOrder))
	for _, n := range t.netOrder {
		out = append(out, t.nets[n])
	}
	return out
}

// DeleteNetwork tears down a network: every endpoint is quiesced, unloaded,
// freed, and forgotten by the name service. Capacity returns to the pool.
func (t *Tenant) DeleteNetwork(p *sim.Proc, name string) error {
	nw, ok := t.nets[name]
	if !ok {
		return fmt.Errorf("%w: network %q/%q", ErrNotFound, t.name, name)
	}
	for _, ep := range nw.Endpoints() {
		nw.deleteEndpoint(p, ep)
	}
	delete(t.nets, name)
	for i, n := range t.netOrder {
		if n == name {
			t.netOrder = append(t.netOrder[:i], t.netOrder[i+1:]...)
			break
		}
	}
	t.m.C.Inc("net.delete")
	return nil
}

// InjectFault parses a fault schedule, scopes it to this tenant, and applies
// it. Only node-scoped kinds (reboot, crash, hostlink, burst) are allowed;
// node indices in the plan are interpreted as indices into the tenant's NIC
// grant list, so a tenant can only fault nodes it holds a NIC on. The
// rewritten plan is returned so callers can log what actually ran.
func (t *Tenant) InjectFault(spec string) (*fault.Plan, error) {
	pl, err := fault.Parse(spec)
	if err != nil {
		return nil, err
	}
	if len(t.nics) == 0 {
		return nil, fmt.Errorf("%w: tenant %q", ErrNoNIC, t.name)
	}
	for i := range pl.Events {
		ev := &pl.Events[i]
		switch ev.Kind {
		case fault.NICReboot, fault.NodeCrash, fault.HostLinkDown:
			ev.A = t.nics[modIdx(ev.A, len(t.nics))]
		case fault.BurstLoss:
			// "all" (A < 0) would be fabric-wide; clamp to the tenant's NICs.
			ev.A = t.nics[modIdx(ev.A, len(t.nics))]
		default:
			return nil, fmt.Errorf("%w: %q", ErrFaultScope, ev.String())
		}
	}
	pl.Apply(t.m.Cluster)
	t.m.C.Inc("fault.inject")
	return pl, nil
}

// modIdx reduces i into [0, n) (negative i picks from the end like fault's
// own index clamping).
func modIdx(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// Serviced reports the tenant's metered NI send service (messages, payload
// bytes) and handler deliveries, live endpoints plus deleted-endpoint bases.
func (t *Tenant) Serviced() (msgs, bytes, delivered int64) {
	msgs, bytes, delivered = t.baseServiced, t.baseBytes, t.baseDelivered
	for _, nn := range t.netOrder {
		for _, en := range t.nets[nn].epOrder {
			ep := t.nets[nn].eps[en]
			sm, sb := ep.ep.Serviced()
			msgs += sm
			bytes += sb
			delivered += ep.ep.Stats.Delivered
		}
	}
	return msgs, bytes, delivered
}

// Network is one named virtual network: a protection domain whose members
// share a key and a communication namespace.
type Network struct {
	t    *Tenant
	name string
	key  core.Key

	eps     map[string]*Endpoint
	epOrder []string

	// isolationDenied counts refused cross-network attempts observed at
	// this network's endpoints (library refusals + fabric NackBadKey
	// returns).
	isolationDenied int64
}

// Name returns the network's name.
func (nw *Network) Name() string { return nw.name }

// Path renders "tenant/network".
func (nw *Network) Path() string { return nw.t.name + "/" + nw.name }

// IsolationDenied reports refused cross-network attempts seen at this
// network's endpoints.
func (nw *Network) IsolationDenied() int64 { return nw.isolationDenied }

// CreateEndpoint admits a named endpoint onto node (-1 auto-places round-
// robin over the tenant's NICs). Admission checks, in order: NIC grant,
// tenant quota, node frame capacity. The endpoint is published in the name
// service, gets the tenant's share weight, an armed event mask, the echo
// handlers, and a service thread that pumps its bundle.
func (nw *Network) CreateEndpoint(name string, node int) (*Endpoint, error) {
	t := nw.t
	m := t.m
	if _, ok := nw.eps[name]; ok {
		return nil, fmt.Errorf("%w: endpoint %s/%s", ErrExists, nw.Path(), name)
	}
	if node < 0 {
		if len(t.nics) == 0 {
			return nil, fmt.Errorf("%w: tenant %q", ErrNoNIC, t.name)
		}
		node = t.nics[t.rrNext%len(t.nics)]
		t.rrNext++
	} else if !t.hasNIC(node) {
		m.C.Inc("ep.reject_nonic")
		return nil, fmt.Errorf("%w %d: tenant %q", ErrNoNIC, node, t.name)
	}
	if t.eps >= t.quota {
		m.C.Inc("ep.reject_quota")
		return nil, fmt.Errorf("%w: tenant %q at %d", ErrQuota, t.name, t.quota)
	}
	if m.perNode[node] >= m.NodeCap() {
		m.C.Inc("ep.reject_admission")
		return nil, fmt.Errorf("%w: node %d at %d endpoints", ErrAdmission, node, m.perNode[node])
	}

	host := m.Cluster.Nodes[node]
	b := core.Attach(host)
	b.SetResolver(m.Dir)
	cep, err := b.NewEndpoint(nw.key, tableSize)
	if err != nil {
		return nil, err
	}
	cep.SetWeight(t.share)
	cep.SetMode(core.Shared) // service thread and app threads both poll
	cep.SetEventMask(true)
	ep := &Endpoint{
		nw:    nw,
		name:  name,
		node:  node,
		b:     b,
		ep:    cep,
		peers: make(map[string]int),
	}
	cep.SetHandler(HEcho, func(p *sim.Proc, tok *core.Token, args [4]uint64, payload []byte) {
		tok.Reply(p, HEchoReply, args)
	})
	// Classify undeliverable returns; a bad-key bounce is the fabric telling
	// us a post crossed a protection boundary.
	cep.SetReturnHandler(func(p *sim.Proc, reason nic.NackReason, dstIdx, handler int, args [4]uint64, payload []byte) {
		if reason == nic.NackBadKey {
			nw.isolationDenied++
			m.C.Inc("isolation.denied")
		}
	})
	m.Dir.Publish(cep.Segment().EP.ID, host.ID)

	nw.eps[name] = ep
	nw.epOrder = append(nw.epOrder, name)
	t.eps++
	m.perNode[node]++
	m.C.Inc("ep.create")

	// Service thread: pumps replies/requests so the endpoint makes progress
	// without an application thread attached.
	host.Spawn(fmt.Sprintf("vnet:%s/%s", nw.Path(), name), func(p *sim.Proc) {
		for !ep.stopped {
			b.Wait(p)
			if ep.stopped {
				return
			}
			if b.Poll(p) == 0 && ep.stopped {
				return
			}
		}
	})
	return ep, nil
}

// Endpoint returns the named endpoint.
func (nw *Network) Endpoint(name string) (*Endpoint, error) {
	ep, ok := nw.eps[name]
	if !ok {
		return nil, fmt.Errorf("%w: endpoint %s/%s", ErrNotFound, nw.Path(), name)
	}
	return ep, nil
}

// Endpoints returns the network's endpoints in creation order.
func (nw *Network) Endpoints() []*Endpoint {
	out := make([]*Endpoint, 0, len(nw.epOrder))
	for _, n := range nw.epOrder {
		out = append(out, nw.eps[n])
	}
	return out
}

// DeleteEndpoint quiesces and frees the named endpoint.
func (nw *Network) DeleteEndpoint(p *sim.Proc, name string) error {
	ep, ok := nw.eps[name]
	if !ok {
		return fmt.Errorf("%w: endpoint %s/%s", ErrNotFound, nw.Path(), name)
	}
	nw.deleteEndpoint(p, ep)
	return nil
}

func (nw *Network) deleteEndpoint(p *sim.Proc, ep *Endpoint) {
	t := nw.t
	m := t.m
	// Fold the endpoint's meters into the tenant base before the image goes.
	sm, sb := ep.ep.Serviced()
	t.baseServiced += sm
	t.baseBytes += sb
	t.baseDelivered += ep.ep.Stats.Delivered
	ep.stopped = true
	if !m.Cluster.Nodes[ep.node].Crashed() {
		ep.b.Close(p) // blocks through quiesce + unload
	}
	m.Dir.Forget(ep.ep.Segment().EP.ID)
	delete(nw.eps, ep.name)
	for i, n := range nw.epOrder {
		if n == ep.name {
			nw.epOrder = append(nw.epOrder[:i], nw.epOrder[i+1:]...)
			break
		}
	}
	t.eps--
	m.perNode[ep.node]--
	m.C.Inc("ep.delete")
}

// Endpoint is one tenant endpoint: a core endpoint plus its place in the
// tenancy namespace and a peer-translation cache.
type Endpoint struct {
	nw   *Network
	name string
	node int
	b    *core.Bundle
	ep   *core.Endpoint

	peers   map[string]int // peer path → translation index
	nextIdx int

	stopped bool
}

// Node reports the index of the node the endpoint lives on.
func (e *Endpoint) Node() int { return e.node }

// Path renders "tenant/network/endpoint".
func (e *Endpoint) Path() string { return e.nw.Path() + "/" + e.name }

// MapPeer binds peer into this endpoint's translation table and returns the
// slot index (cached — mapping twice is free). Peers outside this virtual
// network are refused with an *IsolationError before anything touches the
// fabric.
func (e *Endpoint) MapPeer(peer *Endpoint) (int, error) {
	if peer.nw != e.nw {
		e.nw.isolationDenied++
		e.nw.t.m.C.Inc("isolation.denied")
		return -1, &IsolationError{From: e.Path(), To: peer.Path()}
	}
	if idx, ok := e.peers[peer.Path()]; ok {
		return idx, nil
	}
	idx := e.nextIdx
	if idx >= tableSize {
		return -1, fmt.Errorf("vnet: translation table full on %s", e.Path())
	}
	if err := e.ep.Map(idx, peer.ep.Name(), e.nw.key); err != nil {
		return -1, err
	}
	e.nextIdx++
	e.peers[peer.Path()] = idx
	return idx, nil
}

// Echo sends count echo requests from this endpoint to peer, blocking on
// credit flow control; the service threads pump replies. It refuses
// cross-network peers with an *IsolationError.
func (e *Endpoint) Echo(p *sim.Proc, peer *Endpoint, count int) error {
	idx, err := e.MapPeer(peer)
	if err != nil {
		return err
	}
	for i := 0; i < count; i++ {
		if err := e.ep.Request(p, idx, HEcho, [4]uint64{uint64(i)}); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot is a deterministic point-in-time description of the tenancy
// state, used by the control plane's Snapshot/ListNetworks ops.
type Snapshot struct {
	Tenants []TenantSnap `json:"tenants"`
	Nodes   []NodeLoad   `json:"nodes,omitempty"`
}

// TenantSnap describes one tenant.
type TenantSnap struct {
	Name      string        `json:"name"`
	Quota     int           `json:"quota"`
	Share     int           `json:"share"`
	NICs      []int         `json:"nics,omitempty"`
	Eps       int           `json:"eps"`
	Serviced  int64         `json:"serviced"`
	Delivered int64         `json:"delivered"`
	Networks  []NetworkSnap `json:"networks,omitempty"`
}

// NetworkSnap describes one network.
type NetworkSnap struct {
	Name      string         `json:"name"`
	Endpoints []EndpointSnap `json:"endpoints,omitempty"`
	Denied    int64          `json:"denied,omitempty"`
}

// EndpointSnap describes one endpoint.
type EndpointSnap struct {
	Name     string `json:"name"`
	Node     int    `json:"node"`
	Serviced int64  `json:"serviced"`
}

// NodeLoad reports endpoints admitted on one node.
type NodeLoad struct {
	Node int `json:"node"`
	Eps  int `json:"eps"`
}

// Snapshot captures the tenancy state in creation order (tenants, networks,
// endpoints) with per-node admission loads, so two identical histories
// render byte-identical snapshots.
func (m *Manager) Snapshot() Snapshot {
	var s Snapshot
	for _, t := range m.Tenants() {
		sm, _, del := t.Serviced()
		ts := TenantSnap{
			Name:      t.name,
			Quota:     t.quota,
			Share:     t.share,
			NICs:      t.NICs(),
			Eps:       t.eps,
			Serviced:  sm,
			Delivered: del,
		}
		for _, nw := range t.Networks() {
			ns := NetworkSnap{Name: nw.name, Denied: nw.isolationDenied}
			for _, ep := range nw.Endpoints() {
				es, _ := ep.ep.Serviced()
				ns.Endpoints = append(ns.Endpoints, EndpointSnap{Name: ep.name, Node: ep.node, Serviced: es})
			}
			ts.Networks = append(ts.Networks, ns)
		}
		s.Tenants = append(s.Tenants, ts)
	}
	for n, eps := range m.perNode {
		if eps > 0 {
			s.Nodes = append(s.Nodes, NodeLoad{Node: n, Eps: eps})
		}
	}
	sort.Slice(s.Nodes, func(i, j int) bool { return s.Nodes[i].Node < s.Nodes[j].Node })
	return s
}
