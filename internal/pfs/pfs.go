// Package pfs is a striped parallel file service over virtual networks —
// the "high-performance parallel I/O subsystem" of the paper's Fig. 1
// (compare River [12]). Files are striped round-robin across a set of
// storage servers; clients compute stripe placement and move data directly
// to the owning servers over RPC, so aggregate I/O bandwidth scales with
// the number of servers rather than funneling through one node.
package pfs

import (
	"encoding/binary"
	"errors"
	"fmt"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/rpc"
	"virtnet/internal/sim"
)

// RPC procedure numbers.
const (
	pCreate = 1
	pWrite  = 2
	pRead   = 3
	pStat   = 4
	pDelete = 5
)

// Errors.
var (
	ErrNotFound = errors.New("pfs: no such file")
	ErrExists   = errors.New("pfs: file exists")
)

// DefaultStripe is the default stripe unit.
const DefaultStripe = 65536

// server holds one node's stripe pieces.
type server struct {
	rpc *rpc.Server
	// pieces maps file -> sparse local byte image.
	pieces map[string][]byte
	exists map[string]bool
	stop   bool
}

// FS is a deployed parallel file system: one storage server per given node.
type FS struct {
	servers []*server
	names   []core.EndpointName
	keys    []core.Key
	stripe  int
}

// baseKey namespaces pfs endpoints.
const baseKey = 0xF500

// New deploys storage servers on the given nodes with the given stripe unit
// (0 = DefaultStripe) and spawns their service threads.
func New(nodes []*hostos.Node, stripe int) (*FS, error) {
	if stripe <= 0 {
		stripe = DefaultStripe
	}
	fs := &FS{stripe: stripe}
	for i, node := range nodes {
		key := core.Key(baseKey + i)
		rs, err := rpc.NewServer(node, key)
		if err != nil {
			return nil, err
		}
		sv := &server{rpc: rs, pieces: make(map[string][]byte), exists: make(map[string]bool)}
		sv.register()
		fs.servers = append(fs.servers, sv)
		fs.names = append(fs.names, rs.Name())
		fs.keys = append(fs.keys, key)
		node.Spawn(fmt.Sprintf("pfs-server%d", i), func(p *sim.Proc) {
			for !sv.stop {
				if rs.Poll(p) == 0 {
					p.Sleep(10 * sim.Microsecond)
				}
			}
		})
	}
	return fs, nil
}

// Stop halts the service threads.
func (fs *FS) Stop() {
	for _, s := range fs.servers {
		s.stop = true
	}
}

func (s *server) register() {
	s.rpc.Register(pCreate, func(p *sim.Proc, args []byte) ([]byte, error) {
		name := string(args)
		if s.exists[name] {
			return nil, ErrExists
		}
		s.exists[name] = true
		s.pieces[name] = nil
		return nil, nil
	})
	s.rpc.Register(pDelete, func(p *sim.Proc, args []byte) ([]byte, error) {
		name := string(args)
		if !s.exists[name] {
			return nil, ErrNotFound
		}
		delete(s.exists, name)
		delete(s.pieces, name)
		return nil, nil
	})
	s.rpc.Register(pWrite, func(p *sim.Proc, args []byte) ([]byte, error) {
		name, off, data, err := unpackWrite(args)
		if err != nil {
			return nil, err
		}
		if !s.exists[name] {
			return nil, ErrNotFound
		}
		img := s.pieces[name]
		if need := off + len(data); need > len(img) {
			grown := make([]byte, need)
			copy(grown, img)
			img = grown
		}
		copy(img[off:], data)
		s.pieces[name] = img
		return nil, nil
	})
	s.rpc.Register(pRead, func(p *sim.Proc, args []byte) ([]byte, error) {
		name, off, n, err := unpackRead(args)
		if err != nil {
			return nil, err
		}
		if !s.exists[name] {
			return nil, ErrNotFound
		}
		img := s.pieces[name]
		out := make([]byte, n)
		if off < len(img) {
			copy(out, img[off:])
		}
		return out, nil
	})
	s.rpc.Register(pStat, func(p *sim.Proc, args []byte) ([]byte, error) {
		name := string(args)
		if !s.exists[name] {
			return nil, ErrNotFound
		}
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(len(s.pieces[name])))
		return b[:], nil
	})
}

func packWrite(name string, off int, data []byte) []byte {
	out := make([]byte, 2+len(name)+8+len(data))
	binary.LittleEndian.PutUint16(out, uint16(len(name)))
	copy(out[2:], name)
	binary.LittleEndian.PutUint64(out[2+len(name):], uint64(off))
	copy(out[2+len(name)+8:], data)
	return out
}

func unpackWrite(b []byte) (name string, off int, data []byte, err error) {
	if len(b) < 2 {
		return "", 0, nil, errors.New("pfs: short write args")
	}
	nl := int(binary.LittleEndian.Uint16(b))
	if len(b) < 2+nl+8 {
		return "", 0, nil, errors.New("pfs: short write args")
	}
	name = string(b[2 : 2+nl])
	off = int(binary.LittleEndian.Uint64(b[2+nl:]))
	data = b[2+nl+8:]
	return name, off, data, nil
}

func packRead(name string, off, n int) []byte {
	out := make([]byte, 2+len(name)+16)
	binary.LittleEndian.PutUint16(out, uint16(len(name)))
	copy(out[2:], name)
	binary.LittleEndian.PutUint64(out[2+len(name):], uint64(off))
	binary.LittleEndian.PutUint64(out[2+len(name)+8:], uint64(n))
	return out
}

func unpackRead(b []byte) (name string, off, n int, err error) {
	if len(b) < 2 {
		return "", 0, 0, errors.New("pfs: short read args")
	}
	nl := int(binary.LittleEndian.Uint16(b))
	if len(b) < 2+nl+16 {
		return "", 0, 0, errors.New("pfs: short read args")
	}
	name = string(b[2 : 2+nl])
	off = int(binary.LittleEndian.Uint64(b[2+nl:]))
	n = int(binary.LittleEndian.Uint64(b[2+nl+8:]))
	return name, off, n, nil
}

// Client accesses the file system from one node.
type Client struct {
	fs      *FS
	node    *hostos.Node
	clients []*rpc.Client
}

// NewClient builds a client on node with a connection to every server.
func (fs *FS) NewClient(node *hostos.Node) (*Client, error) {
	c := &Client{fs: fs, node: node}
	for i := range fs.servers {
		cl, err := rpc.NewClient(node, fs.names[i], fs.keys[i])
		if err != nil {
			return nil, err
		}
		c.clients = append(c.clients, cl)
	}
	return c, nil
}

// Create makes an empty file on every stripe server.
func (c *Client) Create(p *sim.Proc, name string) error {
	for _, cl := range c.clients {
		if _, err := cl.Call(p, pCreate, []byte(name), 0); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes a file.
func (c *Client) Delete(p *sim.Proc, name string) error {
	for _, cl := range c.clients {
		if _, err := cl.Call(p, pDelete, []byte(name), 0); err != nil {
			return err
		}
	}
	return nil
}

// stripeOf maps a global offset to (server, local offset within that
// server's image, bytes remaining in the stripe unit).
func (c *Client) stripeOf(off int) (srv, local, remain int) {
	unit := c.fs.stripe
	k := len(c.clients)
	s := off / unit
	srv = s % k
	local = (s/k)*unit + off%unit
	remain = unit - off%unit
	return
}

// WriteAt writes data at the global offset, splitting it across stripe
// units and issuing each piece to its owning server.
func (c *Client) WriteAt(p *sim.Proc, name string, off int, data []byte) error {
	var pend []*rpc.Pending
	for len(data) > 0 {
		srv, local, remain := c.stripeOf(off)
		n := len(data)
		if n > remain {
			n = remain
		}
		pc, err := c.clients[srv].Go(p, pWrite, packWrite(name, local, data[:n]))
		if err != nil {
			return err
		}
		pend = append(pend, pc)
		off += n
		data = data[n:]
	}
	for _, pc := range pend {
		if _, err := pc.Wait(p); err != nil {
			return err
		}
	}
	return nil
}

// ReadAt reads n bytes from the global offset. Holes read as zeros.
func (c *Client) ReadAt(p *sim.Proc, name string, off, n int) ([]byte, error) {
	var pend []*rpc.Pending
	var sizes []int
	for n > 0 {
		srv, local, remain := c.stripeOf(off)
		k := n
		if k > remain {
			k = remain
		}
		pc, err := c.clients[srv].Go(p, pRead, packRead(name, local, k))
		if err != nil {
			return nil, err
		}
		pend = append(pend, pc)
		sizes = append(sizes, k)
		off += k
		n -= k
	}
	var out []byte
	for i, pc := range pend {
		piece, err := pc.Wait(p)
		if err != nil {
			return nil, err
		}
		if len(piece) != sizes[i] {
			return nil, fmt.Errorf("pfs: short read: %d != %d", len(piece), sizes[i])
		}
		out = append(out, piece...)
	}
	return out, nil
}

// Size returns the file's logical size (the max extent across stripes).
func (c *Client) Size(p *sim.Proc, name string) (int, error) {
	unit := c.fs.stripe
	k := len(c.clients)
	max := 0
	for i, cl := range c.clients {
		raw, err := cl.Call(p, pStat, []byte(name), 0)
		if err != nil {
			return 0, err
		}
		localLen := int(binary.LittleEndian.Uint64(raw))
		if localLen == 0 {
			continue
		}
		// The server's last byte lives in local stripe s = (localLen-1)/unit
		// at intra offset (localLen-1)%unit; its global position:
		s := (localLen - 1) / unit
		intra := (localLen - 1) % unit
		global := (s*k+i)*unit + intra + 1
		if global > max {
			max = global
		}
	}
	return max, nil
}
