// Package netsim models the cluster interconnect: a Myrinet-like
// system-area network with a two-level fat-tree of cut-through switches,
// 1.2 Gb/s links, ~300 ns per-hop latency, and blocking flow control.
//
// The model is packet-granular. A packet traversing a path reserves every
// directed link on it in a pipelined cut-through schedule: the head arrives
// at hop i one switchLatency after hop i-1, and each link is occupied for
// the packet's full transmission time. A busy link stalls the packet (and
// delays its occupancy of downstream links), which is how congestion at a
// hot receiver spreads back toward senders — the property §2 of the paper
// calls out for Myrinet. Links are serial resources, so bisection limits
// (which cap the FT and IS benchmarks in Fig. 5) and receiver-link
// saturation (which shapes Figs. 6–7) emerge naturally.
package netsim

import (
	"fmt"
	"strings"

	"virtnet/internal/container"
	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

// NodeID identifies a host (0-based).
type NodeID int

// Packet is one network transmission unit. Payload is opaque to the network;
// the NI layer stores its frame there. Size is the on-wire size in bytes
// (payload plus NI header).
type Packet struct {
	Src, Dst NodeID
	Size     int
	Payload  any
	// Control marks small protocol packets (acks/nacks) that bypass the
	// receiver's admission gate — they carry the flow control itself.
	Control bool
	// Parked is true while the packet is held in the fabric by back
	// pressure. The sending NI consults it: a parked packet cannot be
	// duplicated by a retransmission because the sender's injection path
	// is the same blocked path.
	Parked bool
	// Corrupt marks a packet whose bits were flipped in flight (fault
	// injection). The network still delivers it; the receiving NI's CRC
	// check discards it, and the transport's retransmission masks the loss.
	Corrupt bool
	// Flight is the observability trace context riding on a sampled
	// message (nil when tracing is off or the message was not sampled).
	// The network records per-hop link occupancy and loss annotations on
	// it; Release zeroes it with the rest of the struct.
	Flight *obs.Flight

	// Pool bookkeeping. owner is non-nil only for packets obtained from
	// Network.AllocPacket; directly constructed packets (tests, simple
	// senders) have a nil owner and Retain/Release are no-ops on them.
	owner *Network
	refs  int32
	fnext *Packet // free-list link
}

// Retain takes an additional reference on a pooled packet. A consumer that
// keeps the packet past the delivery callback must Retain it there and
// Release it when done, or its fields may be recycled under it.
func (p *Packet) Retain() {
	if p.owner != nil {
		p.refs++
	}
}

// Release drops one reference. When the last reference on a pooled packet is
// released, every field is zeroed (no payload aliasing across reuses) and the
// struct returns to its network's free list.
func (p *Packet) Release() {
	if p.owner == nil {
		return
	}
	p.refs--
	if p.refs > 0 {
		return
	}
	if p.refs < 0 {
		panic("netsim: packet over-released")
	}
	n := p.owner
	*p = Packet{owner: n, fnext: n.freePkt}
	n.freePkt = p
}

// linkBytesPerSec is the bandwidth of every link: 1.2 Gb/s, as in the
// paper's Myrinet. nsPerByte is its inverse, one link's serial time per byte.
const (
	linkBytesPerSec = 150e6
	nsPerByte       = 1e9 / linkBytesPerSec
)

// switchLatency is the cut-through latency per switch hop.
const switchLatency sim.Duration = 300 // ns

// Config describes the physical network.
type Config struct {
	// HostsPerLeaf and Spines shape the two-level fat tree. The default
	// (5 hosts/leaf, 5 spines) realizes the paper's 100-host, 25-switch
	// network: 20 leaves + 5 spines, 100 host links + 100 uplinks.
	HostsPerLeaf int
	Spines       int
	// LeavesPerPod, when > 0 and smaller than the leaf count, groups the
	// leaves into pods of that many leaves. Each pod has its own Spines
	// spine switches, and Cores core switches join the pods — a three-level
	// fat tree for clusters too large for one spine stage. 0 keeps the
	// classic single-pod two-level tree.
	LeavesPerPod int
	// Cores is the number of core switches of a multi-pod tree (defaults
	// to Spines). Ignored for single-pod topologies.
	Cores int
	// DropProb is the probability that a packet is silently lost in the
	// fabric. The paper's network has rare transmission errors; the NI
	// transport protocol must mask them. Tests raise this to verify
	// exactly-once delivery.
	DropProb float64
}

// DefaultConfig returns the paper's cluster network parameters.
func DefaultConfig() Config {
	return Config{
		HostsPerLeaf: 5,
		Spines:       5,
	}
}

// link is a unidirectional serial resource.
type link struct {
	name   string
	freeAt sim.Time
	down   bool // hot-swapped out (§3.2): packets on it are lost
	// ge, when non-nil, is the link's Gilbert–Elliott correlated-loss
	// process; replacing the pointer atomically retargets or disables it.
	ge *geState
	// Per-link counters: packets that entered the link, that crossed it,
	// and that died on it (down link, or loss while the GE process was in
	// its bad state). Surfaced by LinkStats so fault experiments can
	// localize where loss happened.
	sent, delivered, dropped int64
}

// geState is a two-state Gilbert–Elliott loss process: the link alternates
// between a good and a bad state with exponentially distributed sojourns
// (transitions are scheduled as engine events), and drops packets with a
// state-dependent probability — correlated loss bursts rather than the
// uniform independent loss of Config.DropProb.
type geState struct {
	bad      bool
	lossGood float64
	lossBad  float64
}

// BurstParams configures a Gilbert–Elliott burst-loss process.
type BurstParams struct {
	// MeanGood and MeanBad are the mean sojourn times of the two states.
	MeanGood, MeanBad sim.Duration
	// LossGood and LossBad are the per-packet drop probabilities in each
	// state.
	LossGood, LossBad float64
}

// DefaultBurstParams returns a bursty-loss profile averaging roughly 2%
// loss: long clean intervals punctuated by short windows dropping half of
// all packets.
func DefaultBurstParams() BurstParams {
	return BurstParams{
		MeanGood: 25 * sim.Millisecond,
		MeanBad:  1 * sim.Millisecond,
		LossGood: 0,
		LossBad:  0.5,
	}
}

// LinkCounters is one link's traffic totals.
type LinkCounters struct {
	Name                     string
	Sent, Delivered, Dropped int64
}

// Network is the simulated interconnect.
type Network struct {
	e       *sim.Engine
	cfg     Config
	nhosts  int
	nleaves int
	npods   int
	ncores  int
	// hostUp[h]: host->leaf; hostDown[h]: leaf->host.
	// up[l][s]: leaf l -> spine s (s is pod-local);
	// down[p*Spines+s][l]: spine s of pod p -> leaf l.
	hostUp, hostDown []*link
	up, down         [][]*link
	// Core stage of a multi-pod tree (nil for single-pod):
	// coreUp[p][s][c]: pod p's spine s -> core c;
	// coreDown[c][p][s]: core c -> pod p's spine s.
	coreUp   [][][]*link
	coreDown [][][]*link
	deliver  []func(*Packet)
	// Shard identity: this Network is replica shard of fab. Each shard owns
	// the hosts of a contiguous block of leaves; packets for hosts on other
	// shards leave through the coordinator's exchange in sendCross. fab is
	// nil only for a network built by New on its own, with no coordinator
	// (the GAM baseline and unit tests); every cluster has a Fabric, of one
	// replica when it has one shard.
	fab   *Fabric
	shard int
	// admission gates model hop-by-hop back pressure: when a receiver's
	// staging buffers are full, data packets wait in the fabric (per-
	// destination FIFO) instead of traversing the final link, exactly the
	// blocking flow control §2 ascribes to Myrinet.
	admission []func() bool
	waitq     []container.Deque[waiting]
	// corrupt is the per-packet probability that a delivered packet's bits
	// are flipped in flight (fault injection; see SetCorruptProb).
	corrupt float64
	// tracer is this shard's flight-recorder arena: the fabric opens
	// destination-side continuation flights from it when a traced packet
	// crosses a shard boundary (nil when tracing is off — every trace hook
	// degenerates to a nil check).
	tracer *obs.Tracer
	// freePkt and freeTr recycle packets and in-flight transit records, so
	// steady-state traffic allocates nothing per packet.
	freePkt *Packet
	freeTr  *transit
	// pathBuf is the scratch buffer path() fills in lieu of allocating a
	// fresh link slice per injected packet.
	pathBuf [6]*link
	// Stats
	Sent, Delivered, Dropped int64
	// Corrupted counts packets delivered with flipped bits.
	Corrupted int64
	// freeCross recycles cross-shard crossings (fabric.go). Its length, the
	// records this replica made and the ones the cap let go, and the
	// crossings posted from here minus those landed here, are Crossings'
	// books.
	freeCross                                      *crossing
	nfreeCross, crossMade, crossDropped, crossLive int
}

// New builds a network for nhosts hosts on engine e.
func New(e *sim.Engine, cfg Config, nhosts int) *Network {
	if cfg.HostsPerLeaf <= 0 {
		cfg.HostsPerLeaf = 5
	}
	if cfg.Spines <= 0 {
		cfg.Spines = 5
	}
	nleaves := (nhosts + cfg.HostsPerLeaf - 1) / cfg.HostsPerLeaf
	if nleaves == 0 {
		nleaves = 1
	}
	npods := 1
	if cfg.LeavesPerPod > 0 && cfg.LeavesPerPod < nleaves {
		npods = (nleaves + cfg.LeavesPerPod - 1) / cfg.LeavesPerPod
	}
	ncores := 0
	if npods > 1 {
		ncores = cfg.Cores
		if ncores <= 0 {
			ncores = cfg.Spines
		}
	}
	n := &Network{
		e:         e,
		cfg:       cfg,
		nhosts:    nhosts,
		nleaves:   nleaves,
		npods:     npods,
		ncores:    ncores,
		deliver:   make([]func(*Packet), nhosts),
		admission: make([]func() bool, nhosts),
		waitq:     make([]container.Deque[waiting], nhosts),
	}
	n.hostUp = make([]*link, nhosts)
	n.hostDown = make([]*link, nhosts)
	for h := 0; h < nhosts; h++ {
		n.hostUp[h] = &link{name: fmt.Sprintf("h%d->leaf", h)}
		n.hostDown[h] = &link{name: fmt.Sprintf("leaf->h%d", h)}
	}
	n.up = make([][]*link, nleaves)
	n.down = make([][]*link, npods*cfg.Spines)
	for s := range n.down {
		n.down[s] = make([]*link, nleaves)
	}
	for l := 0; l < nleaves; l++ {
		p := n.podOf(l)
		n.up[l] = make([]*link, cfg.Spines)
		for s := 0; s < cfg.Spines; s++ {
			n.up[l][s] = &link{name: fmt.Sprintf("leaf%d->spine%d", l, p*cfg.Spines+s)}
			n.down[p*cfg.Spines+s][l] = &link{name: fmt.Sprintf("spine%d->leaf%d", p*cfg.Spines+s, l)}
		}
	}
	if npods > 1 {
		n.coreUp = make([][][]*link, npods)
		n.coreDown = make([][][]*link, ncores)
		for c := 0; c < ncores; c++ {
			n.coreDown[c] = make([][]*link, npods)
			for p := 0; p < npods; p++ {
				n.coreDown[c][p] = make([]*link, cfg.Spines)
			}
		}
		for p := 0; p < npods; p++ {
			n.coreUp[p] = make([][]*link, cfg.Spines)
			for s := 0; s < cfg.Spines; s++ {
				n.coreUp[p][s] = make([]*link, ncores)
				for c := 0; c < ncores; c++ {
					n.coreUp[p][s][c] = &link{name: fmt.Sprintf("spine%d->core%d", p*cfg.Spines+s, c)}
					n.coreDown[c][p][s] = &link{name: fmt.Sprintf("core%d->spine%d", c, p*cfg.Spines+s)}
				}
			}
		}
	}
	return n
}

// podOf returns the pod index of leaf l (always 0 in a single-pod tree).
func (n *Network) podOf(l int) int {
	if n.npods <= 1 {
		return 0
	}
	return l / n.cfg.LeavesPerPod
}

// AllocPacket returns a zeroed packet from the network's pool with one
// reference held by the caller. The network takes its own reference for the
// duration of transit; the caller's reference is released with Release once
// the caller no longer needs the handle (e.g. when a send attempt resolves).
func (n *Network) AllocPacket() *Packet {
	if p := n.freePkt; p != nil {
		n.freePkt = p.fnext
		p.fnext = nil
		p.refs = 1
		return p
	}
	return &Packet{owner: n, refs: 1}
}

// transit carries one packet through the fabric: a pooled record with a
// pre-bound delivery timer, replacing a per-packet closure per hop.
type transit struct {
	n     *Network
	pkt   *Packet
	timer *sim.Timer
	next  *transit
}

func (n *Network) newTransit(pkt *Packet) *transit {
	tr := n.freeTr
	if tr != nil {
		n.freeTr = tr.next
		tr.next = nil
	} else {
		tr = &transit{n: n}
		tr.timer = n.e.NewTimer(tr.run)
	}
	tr.pkt = pkt
	return tr
}

func (tr *transit) run() {
	pkt := tr.pkt
	tr.pkt = nil
	tr.next = tr.n.freeTr
	tr.n.freeTr = tr
	tr.n.handoff(pkt)
}

// SetTracer installs this shard's flight-recorder arena. The fabric uses
// it to open continuation flights for traced packets arriving from other
// shards, so hop records land on the shard that owns the receiver. Must be
// the arena of the engine driving this replica — flights are shard-local
// and unsynchronized by design.
func (n *Network) SetTracer(t *obs.Tracer) { n.tracer = t }

// NumHosts returns the number of attached host ports.
func (n *Network) NumHosts() int { return n.nhosts }

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Attach registers the delivery callback for host id (its NI receive path).
func (n *Network) Attach(id NodeID, fn func(*Packet)) {
	n.deliver[id] = fn
}

func (n *Network) leafOf(h NodeID) int { return int(h) / n.cfg.HostsPerLeaf }

// path returns the ordered directed links from src to dst using the given
// route index (spine selector for inter-leaf traffic). The returned slice
// aliases a Network-owned scratch buffer: it is valid only until the next
// call, which is fine for its callers (inject, sendCross, injectTail), which
// walk it synchronously.
func (n *Network) path(src, dst NodeID, route int) []*link {
	if src == dst {
		return nil
	}
	ls, ld := n.leafOf(src), n.leafOf(dst)
	if ls == ld {
		n.pathBuf[0], n.pathBuf[1] = n.hostUp[src], n.hostDown[dst]
		return n.pathBuf[:2]
	}
	s := route % n.cfg.Spines
	if s < 0 {
		s += n.cfg.Spines
	}
	ps, pd := n.podOf(ls), n.podOf(ld)
	if ps == pd {
		n.pathBuf[0], n.pathBuf[1], n.pathBuf[2], n.pathBuf[3] =
			n.hostUp[src], n.up[ls][s], n.down[ps*n.cfg.Spines+s][ld], n.hostDown[dst]
		return n.pathBuf[:4]
	}
	// Cross-pod: climb to a core switch and descend through the same
	// pod-local spine index on the far side, so one route value names the
	// whole path deterministically.
	c := (route / n.cfg.Spines) % n.ncores
	if c < 0 {
		c += n.ncores
	}
	n.pathBuf[0], n.pathBuf[1], n.pathBuf[2] = n.hostUp[src], n.up[ls][s], n.coreUp[ps][s][c]
	n.pathBuf[3], n.pathBuf[4], n.pathBuf[5] = n.coreDown[c][pd][s], n.down[pd*n.cfg.Spines+s][ld], n.hostDown[dst]
	return n.pathBuf[:6]
}

// waiting is a packet held by back pressure short of its destination.
// remote marks packets that arrived over a shard exchange: they re-enter
// through injectTail (the destination half of the path) with headAt as the
// time their head reached the shard boundary.
type waiting struct {
	pkt    *Packet
	route  int
	remote bool
	headAt sim.Time
}

// SetAdmission installs the receiver-side gate for host id: while ok
// returns false, data packets destined to id queue in the fabric.
func (n *Network) SetAdmission(id NodeID, ok func() bool) {
	n.admission[id] = ok
}

// Admit drains host id's back-pressure queue while its gate accepts.
func (n *Network) Admit(id NodeID) {
	adm := n.admission[id]
	q := &n.waitq[id]
	for q.Len() > 0 && (adm == nil || adm()) {
		w, _ := q.Pop()
		w.pkt.Parked = false
		if w.remote {
			n.injectTail(w.pkt, w.route, w.headAt)
		} else {
			n.inject(w.pkt, w.route)
		}
	}
}

// Blocked reports packets currently held by back pressure for host id.
func (n *Network) Blocked(id NodeID) int { return n.waitq[id].Len() }

// Send injects a packet. route selects among alternative spine paths (the
// NI binds each logical channel to a fixed route, giving FIFO order per
// channel and path diversity across channels). Delivery happens via the
// destination's attached callback at the simulated arrival time. Loopback
// (src == dst) delivers after one switch latency without using links.
// Data packets for a receiver whose admission gate is closed wait in the
// fabric and are released by Admit.
func (n *Network) Send(pkt *Packet, route int) {
	// The only place netsim asks whether it has a Fabric at all, and the
	// sanctioned one: a Network that New built on its own, with no
	// coordinator, owns every host. A one-shard Fabric takes the same branch
	// as any other and simply never finds a foreign destination.
	if n.fab != nil {
		if d := int(n.fab.shardOfHost[pkt.Dst]); d != n.shard {
			n.sendCross(pkt, route, d)
			return
		}
	}
	// The network's transit reference: held while the packet is parked or in
	// flight, dropped after delivery or loss.
	pkt.Retain()
	if !pkt.Control && pkt.Src != pkt.Dst {
		if adm := n.admission[pkt.Dst]; adm != nil {
			if q := &n.waitq[pkt.Dst]; q.Len() > 0 || !adm() {
				pkt.Parked = true
				q.Push(waiting{pkt: pkt, route: route})
				return
			}
		}
	}
	n.inject(pkt, route)
}

// inject charges the whole path on this network: a same-shard (or
// standalone) packet. It holds the transit reference Send took, so a lost
// packet is released here.
func (n *Network) inject(pkt *Packet, route int) {
	n.Sent++
	if n.lostInFabric(pkt) {
		pkt.Release()
		return
	}
	if pkt.Src == pkt.Dst {
		n.newTransit(pkt).timer.Reset(switchLatency)
		return
	}
	links := n.path(pkt.Src, pkt.Dst, route)
	if L, kind := n.cross(links); L != nil {
		// The NI transport masks the loss by retransmitting, and after
		// bounded retries rebinds the message to a channel with a different
		// route (§5.1) — reconfiguration is transparent. The retransmission
		// continues the same flight, so the loss is only a note on it.
		pkt.Flight.Note(kind+L.name, n.e.Now())
		pkt.Release()
		return
	}
	pkt.Corrupt = pkt.Corrupt || n.flips(pkt)
	t0 := n.reserve(links, n.e.Now())
	n.newTransit(pkt).timer.ResetAt(n.occupy(links, len(links), t0, pkt))
}

// The path charge. Every packet pays the same rule — reserve each link of
// the path in a pipelined cut-through schedule, stall where a link is busy,
// die where a link is down — and the five helpers below are its only
// spelling. inject passes them the whole path; a cross-shard packet passes
// the source half from sendCross and the destination half from injectTail.
// The PRNG draw order per packet is fixed: DropProb, each link's burst loss
// in path order, corruption.

// lostInFabric draws the uniform Config.DropProb loss and accounts a hit,
// attributed to the sender's access link.
func (n *Network) lostInFabric(pkt *Packet) bool {
	if n.cfg.DropProb <= 0 || n.e.Rand().Float64() >= n.cfg.DropProb {
		return false
	}
	n.Dropped++
	if pkt.Src != pkt.Dst {
		n.hostUp[pkt.Src].dropped++
	}
	pkt.Flight.Note("loss:fabric", n.e.Now())
	return true
}

// cross counts a packet onto each of links in path order. It stops at the
// first link that loses it — swapped out (§3.2), or a draw against the
// link's Gilbert–Elliott state — and returns that link with the flight
// annotation prefix naming the cause; the caller owns the packet reference
// and the flight, so it decides what a loss does to them. A nil link means
// the packet crossed every link and is counted delivered on each.
func (n *Network) cross(links []*link) (lostOn *link, kind string) {
	for _, L := range links {
		L.sent++
		if L.down {
			L.dropped++
			n.Dropped++
			return L, "loss:"
		}
		if g := L.ge; g != nil {
			pl := g.lossGood
			if g.bad {
				pl = g.lossBad
			}
			if pl > 0 && n.e.Rand().Float64() < pl {
				L.dropped++
				n.Dropped++
				return L, "burst-loss:"
			}
		}
	}
	for _, L := range links {
		L.delivered++
	}
	return nil, ""
}

// flips draws the fault-injection bit flip for a packet that has crossed its
// links, and accounts a hit. A packet already flipped draws nothing: callers
// test that first.
func (n *Network) flips(pkt *Packet) bool {
	if n.corrupt <= 0 || n.e.Rand().Float64() >= n.corrupt {
		return false
	}
	n.Corrupted++
	pkt.Flight.Note("corrupt", n.e.Now())
	return true
}

// reserve finds the pipelined cut-through slot with stall propagation: the
// earliest t0 >= from such that every link i is free at t0 + i*hop. One pass
// finds it — a stall at link i only moves later the instants at which the
// links before it, already free, are needed.
func (n *Network) reserve(links []*link, from sim.Time) sim.Time {
	for i, L := range links {
		if arr := from.Add(sim.Duration(i) * switchLatency); L.freeAt > arr {
			from = from.Add(L.freeAt.Sub(arr))
		}
	}
	return from
}

// occupy commits the schedule reserve found: link i is held for the packet's
// transmission time from t0 + i*hop. The first own links also record the
// interval on a traced packet's flight, in path order; the rest are only
// held, as the sender's estimate of a half of the path another shard
// charges. Returns when the tail clears the last link.
func (n *Network) occupy(links []*link, own int, t0 sim.Time, pkt *Packet) sim.Time {
	tx := n.TxTime(pkt.Size)
	hop := switchLatency
	for i, L := range links {
		start := t0.Add(sim.Duration(i) * hop)
		L.freeAt = start.Add(tx)
		if i < own {
			pkt.Flight.AddHop(L.name, start, L.freeAt)
		}
	}
	return t0.Add(sim.Duration(len(links))*hop + tx)
}

func (n *Network) handoff(pkt *Packet) {
	n.Delivered++
	if fn := n.deliver[pkt.Dst]; fn != nil {
		fn(pkt)
	}
	pkt.Release()
}

// TxTime returns the serial transmission time for size bytes on one link.
func (n *Network) TxTime(size int) sim.Duration {
	return sim.Duration(float64(size) * nsPerByte)
}

// SetSpineDown hot-swaps spine switch s (a global index across pods) out
// of (or back into) the fabric: all its links drop traffic. Paths through
// other spines are unaffected, so transports with multi-path channels keep
// communicating (§3.2's incremental-scaling/hot-swap requirement).
func (n *Network) SetSpineDown(s int, down bool) {
	p, sl := s/n.cfg.Spines, s%n.cfg.Spines
	for l := 0; l < n.nleaves; l++ {
		if n.podOf(l) != p {
			continue // a spine only links to its own pod's leaves
		}
		n.up[l][sl].down = down
		n.down[s][l].down = down
	}
	if n.npods > 1 {
		for c := 0; c < n.ncores; c++ {
			n.coreUp[p][sl][c].down = down
			n.coreDown[c][p][sl].down = down
		}
	}
}

// SetHostLinkDown hot-swaps host h's access links (both directions).
func (n *Network) SetHostLinkDown(h NodeID, down bool) {
	n.hostUp[h].down = down
	n.hostDown[h].down = down
}

// SetUplinkDown fails (or repairs) the single leaf<->spine uplink pair
// between leaf l and its pod's spine s (pod-local index) — an arbitrary
// inter-switch link failure, finer grained than a whole-spine hot swap.
// Traffic through other spines is unaffected.
func (n *Network) SetUplinkDown(l, s int, down bool) {
	n.up[l][s].down = down
	n.down[n.podOf(l)*n.cfg.Spines+s][l].down = down
}

// SetLeafDown fails (or repairs) leaf switch l entirely: every host access
// link it terminates and every uplink to the spines. Hosts on that leaf are
// isolated until repair.
func (n *Network) SetLeafDown(l int, down bool) {
	for h := l * n.cfg.HostsPerLeaf; h < (l+1)*n.cfg.HostsPerLeaf && h < n.nhosts; h++ {
		n.hostUp[h].down = down
		n.hostDown[h].down = down
	}
	p := n.podOf(l)
	for s := 0; s < n.cfg.Spines; s++ {
		n.up[l][s].down = down
		n.down[p*n.cfg.Spines+s][l].down = down
	}
}

// ---- Locality API ----
//
// The two-level fat tree makes host locality a first-class scheduling input:
// same-leaf pairs communicate over a single switch hop and never touch the
// spines, while inter-leaf traffic crosses two uplinks and competes for
// bisection bandwidth. Communication layers (internal/coll) use these
// accessors to place ring neighbors under the same leaf switch and to build
// hierarchical (leaf-local, then cross-spine) collective schedules.

// LeafOf returns the index of the leaf switch host h hangs from.
func (n *Network) LeafOf(h NodeID) int { return n.leafOf(h) }

// Leaves reports the number of leaf switches.
func (n *Network) Leaves() int { return n.nleaves }

// TotalSpines reports the number of spine switches across all pods.
func (n *Network) TotalSpines() int { return n.npods * n.cfg.Spines }

// startGE attaches a fresh Gilbert–Elliott process to L and schedules its
// state transitions as engine events (exponentially distributed sojourns
// drawn from the engine PRNG, so runs stay bit-reproducible).
func (n *Network) startGE(L *link, bp BurstParams) {
	g := &geState{lossGood: bp.LossGood, lossBad: bp.LossBad}
	L.ge = g
	var flip func()
	schedule := func() {
		mean := bp.MeanGood
		if g.bad {
			mean = bp.MeanBad
		}
		d := sim.Duration(n.e.Rand().ExpFloat64() * float64(mean))
		n.e.AfterFunc(d, flip)
	}
	flip = func() {
		if L.ge != g {
			return // process was disabled or replaced; let it die
		}
		g.bad = !g.bad
		schedule()
	}
	schedule()
}

// SetHostBurstLoss enables (or disables) correlated burst loss on host h's
// access links, both directions.
func (n *Network) SetHostBurstLoss(h NodeID, bp BurstParams, on bool) {
	for _, L := range [2]*link{n.hostUp[h], n.hostDown[h]} {
		if on {
			n.startGE(L, bp)
		} else {
			L.ge = nil
		}
	}
}

// SetAllBurstLoss enables (or disables) correlated burst loss on every link
// in the fabric. Each link runs an independent GE process.
func (n *Network) SetAllBurstLoss(bp BurstParams, on bool) {
	n.eachLink(func(L *link) {
		if on {
			n.startGE(L, bp)
		} else {
			L.ge = nil
		}
	})
}

// SetCorruptProb sets the per-packet probability that a delivered packet's
// bits are flipped in flight. Corrupted packets are still delivered; the
// receiving NI's CRC check discards them (and counts them), and the
// transport's retransmission masks the loss end to end.
func (n *Network) SetCorruptProb(p float64) { n.corrupt = p }

// eachLink visits every link in a fixed, deterministic order.
func (n *Network) eachLink(fn func(*link)) {
	for h := 0; h < n.nhosts; h++ {
		fn(n.hostUp[h])
	}
	for h := 0; h < n.nhosts; h++ {
		fn(n.hostDown[h])
	}
	for l := 0; l < n.nleaves; l++ {
		for s := 0; s < n.cfg.Spines; s++ {
			fn(n.up[l][s])
		}
	}
	for s := range n.down {
		for l := 0; l < n.nleaves; l++ {
			if n.down[s][l] != nil { // cross-pod slots are unallocated
				fn(n.down[s][l])
			}
		}
	}
	// The core stage: ncores is 0 on a two-level tree.
	for p := 0; p < n.npods; p++ {
		for s := 0; s < n.cfg.Spines; s++ {
			for c := 0; c < n.ncores; c++ {
				fn(n.coreUp[p][s][c])
			}
		}
	}
	for c := 0; c < n.ncores; c++ {
		for p := 0; p < n.npods; p++ {
			for s := 0; s < n.cfg.Spines; s++ {
				fn(n.coreDown[c][p][s])
			}
		}
	}
}

// PerLinkCounters returns every link's traffic totals in a fixed order
// (host uplinks, host downlinks, leaf->spine, spine->leaf).
func (n *Network) PerLinkCounters() []LinkCounters {
	var out []LinkCounters
	n.eachLink(func(L *link) {
		out = append(out, LinkCounters{Name: L.name, Sent: L.sent, Delivered: L.delivered, Dropped: L.dropped})
	})
	return out
}

// RenderLinkCounters renders structured per-link counters, one line per
// link that carried or dropped traffic. With lossyOnly it includes only
// links that dropped at least one packet — the view fault experiments use
// to localize where loss happened.
func RenderLinkCounters(links []LinkCounters, lossyOnly bool) string {
	var b strings.Builder
	for _, lc := range links {
		if lossyOnly && lc.Dropped == 0 {
			continue
		}
		if lc.Sent == 0 && lc.Dropped == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-16s sent=%-9d delivered=%-9d dropped=%d\n",
			lc.Name, lc.Sent, lc.Delivered, lc.Dropped)
	}
	return b.String()
}
