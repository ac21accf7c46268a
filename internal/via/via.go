// Package via implements a Virtual Interface Architecture flavored API on
// top of the same simulated NI, reflecting the work the paper's conclusion
// describes ("applying these techniques for network virtualization to an
// implementation of the Virtual Interface Architecture").
//
// A VI is a connection between exactly two processes; a parallel program on
// n nodes therefore needs n^2 VIs for full connectivity where virtual
// networks need one endpoint per process (§7). VIs require explicit memory
// registration before communicating, and completions are harvested from a
// completion queue that several VIs may share. Each VI is backed by one
// endpoint, so VI-per-pair provisioning directly multiplies pressure on the
// NI's endpoint frames — the contrast the ResourcePressure experiment in
// internal/bench quantifies.
package via

import (
	"errors"
	"fmt"

	"virtnet/internal/container"
	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/nic"
	"virtnet/internal/sim"
)

// Handler indices on the backing endpoints.
const (
	hSend = 1
	hAck  = 2
)

// Errors.
var (
	ErrNotConnected = errors.New("via: VI not connected")
	ErrNotReg       = errors.New("via: buffer not registered")
)

// MemHandle names a registered memory region.
type MemHandle int

// NIC is a process's VIA provider instance: it owns VIs, memory
// registrations, and completion queues on one node.
type NIC struct {
	node    *hostos.Node
	regions map[MemHandle][]byte
	nextReg MemHandle
	nextKey uint64
	vis     []*VI
}

// Open returns a VIA provider on node.
func Open(node *hostos.Node) *NIC {
	return &NIC{node: node, regions: make(map[MemHandle][]byte),
		nextKey: uint64(node.ID)<<24 | 0xA1A}
}

// RegisterMemory pins and registers buf (the VIA's mandatory explicit
// registration, which the paper contrasts with its on-demand management).
func (n *NIC) RegisterMemory(buf []byte) MemHandle {
	n.nextReg++
	n.regions[n.nextReg] = buf
	return n.nextReg
}

// CQ is a completion queue; several VIs may direct completions to one CQ,
// giving a central place to poll (§7).
type CQ struct {
	entries container.Deque[Completion]
}

// Completion describes one finished descriptor.
type Completion struct {
	IsRecv bool
	Length int
}

// NewCQ creates a completion queue.
func NewCQ() *CQ { return &CQ{} }

// Poll removes and returns the oldest completion, if any.
func (cq *CQ) Poll() (Completion, bool) { return cq.entries.Pop() }

// VI is one endpoint of a point-to-point virtual interface.
type VI struct {
	nic       *NIC
	ep        *core.Endpoint
	connected bool
	sendCQ    *CQ
	recvCQ    *CQ
	recvQ     container.Deque[[]byte] // posted receive buffers, oldest first
}

// CreateVI builds a VI whose completions go to the given queues (which may
// be shared with other VIs).
func (n *NIC) CreateVI(sendCQ, recvCQ *CQ) (*VI, error) {
	b := core.Attach(n.node)
	n.nextKey++
	ep, err := b.NewEndpoint(core.Key(n.nextKey), 2)
	if err != nil {
		return nil, err
	}
	vi := &VI{nic: n, ep: ep, sendCQ: sendCQ, recvCQ: recvCQ}
	ep.SetHandler(hSend, vi.onRecv)
	ep.SetHandler(hAck, vi.onAck)
	ep.SetReturnHandler(vi.onReturn)
	n.vis = append(n.vis, vi)
	return vi, nil
}

// onReturn handles a send the fabric bounced back (§3.2 return-to-sender):
// the NI has already retried it, so the descriptor completes in error
// (Length == -1) on the send CQ, matching the VIA's stance that reliability
// problems surface to the application.
func (vi *VI) onReturn(_ *sim.Proc, _ nic.NackReason, _, h int, _ [4]uint64, _ []byte) {
	if h == hSend {
		vi.sendCQ.entries.Push(Completion{Length: -1})
	}
}

// Addr returns the VI's connection address.
func (vi *VI) Addr() (core.EndpointName, core.Key) { return vi.ep.Name(), vi.ep.Key() }

// Connect wires this VI to a peer VI's address. VIA connections are
// established out of band (a connection manager); here the rendezvous is
// the address pair itself.
func (vi *VI) Connect(peer core.EndpointName, key core.Key) error {
	if err := vi.ep.Map(0, peer, key); err != nil {
		return err
	}
	vi.connected = true
	return nil
}

// PostRecv queues a registered buffer to receive the next message.
func (vi *VI) PostRecv(h MemHandle) error {
	buf, ok := vi.nic.regions[h]
	if !ok {
		return ErrNotReg
	}
	vi.recvQ.Push(buf)
	return nil
}

// PostSend transmits length bytes of the registered region on the
// connection; completion arrives on the send CQ.
func (vi *VI) PostSend(p *sim.Proc, h MemHandle, length int) error {
	if !vi.connected {
		return ErrNotConnected
	}
	buf, ok := vi.nic.regions[h]
	if !ok {
		return ErrNotReg
	}
	if length > len(buf) {
		return fmt.Errorf("via: length %d beyond registration %d", length, len(buf))
	}
	return vi.ep.RequestBulk(p, 0, hSend, buf[:length], [4]uint64{})
}

// onRecv consumes a posted receive descriptor; a message arriving with no
// posted descriptor is dropped with an error completion, as the VIA
// specifies (its reliability classes push that problem to the application).
func (vi *VI) onRecv(p *sim.Proc, tok *core.Token, _ [4]uint64, payload []byte) {
	c := Completion{IsRecv: true, Length: -1}
	if buf, ok := vi.recvQ.Pop(); ok {
		c.Length = copy(buf, payload)
	}
	vi.recvCQ.entries.Push(c)
	tok.Reply(p, hAck, [4]uint64{})
}

func (vi *VI) onAck(_ *sim.Proc, _ *core.Token, _ [4]uint64, _ []byte) {
	vi.sendCQ.entries.Push(Completion{})
}

// Poll services the VI's backing endpoint so handlers (and therefore
// completions) run.
func (vi *VI) Poll(p *sim.Proc) int { return vi.ep.Poll(p) }

// FullMesh connects a VI between every pair of the given providers
// (the n^2 provisioning §7 criticizes) and returns vis[i][j] = the VI at
// provider i connected to provider j, and recvCQs[i]. All completions at
// provider i go to one shared CQ pair, mirroring VIA's shared completion
// queues.
func FullMesh(nics []*NIC) (vis [][]*VI, recvCQs []*CQ, err error) {
	n := len(nics)
	vis = make([][]*VI, n)
	recvCQs = make([]*CQ, n)
	for i := range nics {
		sendCQ := NewCQ()
		recvCQs[i] = NewCQ()
		vis[i] = make([]*VI, n)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			vi, e := nics[i].CreateVI(sendCQ, recvCQs[i])
			if e != nil {
				return nil, nil, e
			}
			vis[i][j] = vi
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			name, key := vis[j][i].Addr()
			if e := vis[i][j].Connect(name, key); e != nil {
				return nil, nil, e
			}
		}
	}
	return vis, recvCQs, nil
}
