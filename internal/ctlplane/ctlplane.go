// Package ctlplane is the versioned request/response control API over the
// vnet tenancy layer — the NetworkConfigProxy-style surface (ROADMAP item 2)
// that cmd/vnproxyd serves over a local socket and experiments drive
// in-process.
//
// The codec is newline-delimited JSON. Determinism is a design requirement:
// requests are processed strictly in arrival order under a server-assigned
// sequence number, every response field is emitted in fixed struct order,
// and the only source of time is the simulation's virtual clock (advanced
// explicitly by the "advance" op). Two identical scripted sessions against
// the same seed therefore produce byte-identical response streams — CI
// replays a session twice and diffs the bytes.
package ctlplane

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"virtnet/internal/fault"
	"virtnet/internal/obs"
	"virtnet/internal/sim"
	"virtnet/internal/vnet"
)

// Version is the control API version this server speaks. Requests carrying
// a different non-zero version are refused (zero means "current").
const Version = 1

// Request is one control operation. Fields beyond V/Seq/Op are op-specific;
// unused ones are omitted from the wire form.
type Request struct {
	V   int    `json:"v,omitempty"`
	Seq uint64 `json:"seq,omitempty"` // 0 lets the server assign the next
	Op  string `json:"op"`

	Tenant   string `json:"tenant,omitempty"`
	Network  string `json:"network,omitempty"`
	Endpoint string `json:"endpoint,omitempty"`
	Peer     string `json:"peer,omitempty"` // traffic destination endpoint
	Node     *int   `json:"node,omitempty"` // nil auto-places
	Quota    int    `json:"quota,omitempty"`
	Share    int    `json:"share,omitempty"`
	Plan     string `json:"plan,omitempty"`   // fault schedule string
	Count    int    `json:"count,omitempty"`  // traffic message count
	Dur      string `json:"dur,omitempty"`    // advance duration, e.g. "100ms"
	Prefix   string `json:"prefix,omitempty"` // metrics name filter
}

// Response answers one request. Time is the virtual clock after the op.
type Response struct {
	V      int             `json:"v"`
	Seq    uint64          `json:"seq"`
	Op     string          `json:"op"`
	OK     bool            `json:"ok"`
	Err    string          `json:"err,omitempty"`
	Time   string          `json:"time"`
	Result json.RawMessage `json:"result,omitempty"`
}

// Metric is one metrics value in a query-metrics result.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// NetworkInfo is one entry of a list-networks result.
type NetworkInfo struct {
	Tenant    string `json:"tenant"`
	Network   string `json:"network"`
	Endpoints int    `json:"endpoints"`
	Denied    int64  `json:"denied,omitempty"`
}

// Server executes control requests against one tenancy manager. It owns the
// right to advance the simulation clock (blocking ops and "advance" run the
// engine), so callers must not run the engine concurrently with Handle.
type Server struct {
	M *vnet.Manager
	// MaxOpTime bounds the virtual time a blocking op (delete, quiesce) may
	// consume before the server gives up on it.
	MaxOpTime sim.Duration

	nextSeq uint64
}

// NewServer builds a control server over m.
func NewServer(m *vnet.Manager) *Server {
	return &Server{M: m, MaxOpTime: 10 * sim.Second}
}

// NextSeq reports the sequence number the next request will be assigned.
func (s *Server) NextSeq() uint64 { return s.nextSeq + 1 }

// Handle executes one request and returns its response. Sequencing: the
// server assigns consecutive numbers in arrival order; a request carrying a
// non-zero Seq asserts its expected position and is refused on mismatch
// (the session is out of sync — replaying it would not be deterministic).
func (s *Server) Handle(req Request) Response {
	s.nextSeq++
	resp := Response{V: Version, Seq: s.nextSeq, Op: req.Op}
	if req.V != 0 && req.V != Version {
		return s.fail(resp, fmt.Errorf("ctlplane: unsupported version %d (server speaks %d)", req.V, Version))
	}
	if req.Seq != 0 && req.Seq != s.nextSeq {
		return s.fail(resp, fmt.Errorf("ctlplane: sequence mismatch: request says %d, server expects %d", req.Seq, s.nextSeq))
	}
	result, err := s.dispatch(req)
	if err != nil {
		return s.fail(resp, err)
	}
	resp.OK = true
	resp.Time = s.now()
	if result != nil {
		raw, merr := json.Marshal(result)
		if merr != nil {
			return s.fail(resp, merr)
		}
		resp.Result = raw
	}
	return resp
}

func (s *Server) fail(resp Response, err error) Response {
	resp.OK = false
	resp.Err = err.Error()
	resp.Time = s.now()
	return resp
}

func (s *Server) now() string {
	return s.M.Cluster.Now().Sub(0).String()
}

func (s *Server) dispatch(req Request) (any, error) {
	switch req.Op {
	case "create-tenant":
		t, err := s.M.CreateTenant(req.Tenant, req.Quota, req.Share)
		if err != nil {
			return nil, err
		}
		return map[string]int{"quota": t.Quota(), "share": t.Share()}, nil

	case "delete-tenant":
		return nil, s.runOp(func(p *sim.Proc) error {
			return s.M.DeleteTenant(p, req.Tenant)
		})

	case "add-nic":
		t, err := s.M.Tenant(req.Tenant)
		if err != nil {
			return nil, err
		}
		if req.Node == nil {
			return nil, fmt.Errorf("ctlplane: add-nic needs a node")
		}
		return nil, t.AddNIC(*req.Node)

	case "create-network":
		t, err := s.M.Tenant(req.Tenant)
		if err != nil {
			return nil, err
		}
		_, err = t.CreateNetwork(req.Network)
		return nil, err

	case "delete-network":
		t, err := s.M.Tenant(req.Tenant)
		if err != nil {
			return nil, err
		}
		return nil, s.runOp(func(p *sim.Proc) error {
			return t.DeleteNetwork(p, req.Network)
		})

	case "create-endpoint":
		nw, err := s.network(req)
		if err != nil {
			return nil, err
		}
		node := -1
		if req.Node != nil {
			node = *req.Node
		}
		ep, err := nw.CreateEndpoint(req.Endpoint, node)
		if err != nil {
			return nil, err
		}
		return map[string]int{"node": ep.Node()}, nil

	case "delete-endpoint":
		nw, err := s.network(req)
		if err != nil {
			return nil, err
		}
		return nil, s.runOp(func(p *sim.Proc) error {
			return nw.DeleteEndpoint(p, req.Endpoint)
		})

	case "inject-fault":
		t, err := s.M.Tenant(req.Tenant)
		if err != nil {
			return nil, err
		}
		pl, err := t.InjectFault(req.Plan)
		if err != nil {
			return nil, err
		}
		return map[string]string{"plan": pl.String()}, nil

	case "traffic":
		return s.startTraffic(req)

	case "advance":
		d, err := fault.ParseDur(req.Dur)
		if err != nil {
			return nil, err
		}
		s.M.Cluster.RunFor(d)
		return nil, nil

	case "query-metrics":
		return s.queryMetrics(req.Prefix)

	case "snapshot":
		return s.M.Snapshot(), nil

	case "list-networks":
		var out []NetworkInfo
		for _, t := range s.M.Tenants() {
			if req.Tenant != "" && t.Name() != req.Tenant {
				continue
			}
			for _, nw := range t.Networks() {
				out = append(out, NetworkInfo{
					Tenant:    t.Name(),
					Network:   nw.Name(),
					Endpoints: len(nw.Endpoints()),
					Denied:    nw.IsolationDenied(),
				})
			}
		}
		return out, nil

	default:
		return nil, fmt.Errorf("ctlplane: unknown op %q", req.Op)
	}
}

func (s *Server) network(req Request) (*vnet.Network, error) {
	t, err := s.M.Tenant(req.Tenant)
	if err != nil {
		return nil, err
	}
	return t.Network(req.Network)
}

// startTraffic spawns an echo client streaming Count requests from Endpoint
// to Peer (both in the request's network). The client runs as subsequent
// "advance" ops move virtual time; isolation violations surface as typed
// errors before anything is posted.
func (s *Server) startTraffic(req Request) (any, error) {
	nw, err := s.network(req)
	if err != nil {
		return nil, err
	}
	src, err := nw.Endpoint(req.Endpoint)
	if err != nil {
		return nil, err
	}
	dst, err := nw.Endpoint(req.Peer)
	if err != nil {
		return nil, err
	}
	count := req.Count
	if count <= 0 {
		count = 1
	}
	// Map before spawning so a cross-network refusal fails the request
	// itself, not a background thread.
	if _, err := src.MapPeer(dst); err != nil {
		return nil, err
	}
	s.M.Cluster.Nodes[src.Node()].Spawn("ctl:traffic:"+src.Path(), func(p *sim.Proc) {
		src.Echo(p, dst, count)
	})
	return map[string]int{"count": count}, nil
}

// queryMetrics snapshots the obs registry and returns values whose names
// start with prefix (all, when empty), in registration order. Requires the
// cluster's observability layer; without it only vnet's own counters exist.
func (s *Server) queryMetrics(prefix string) (any, error) {
	o := s.M.Cluster.Obs()
	var vals []obs.KV
	if o != nil {
		vals = o.R.Snapshot().Vals
	} else {
		for _, kv := range s.M.C.Snapshot() {
			vals = append(vals, obs.KV{Name: "vnet." + kv.Name, Value: float64(kv.Value)})
		}
	}
	out := []Metric{}
	for _, kv := range vals {
		if prefix != "" && !strings.HasPrefix(kv.Name, prefix) {
			continue
		}
		if kv.Value == 0 {
			continue
		}
		out = append(out, Metric{Name: kv.Name, Value: kv.Value})
	}
	return out, nil
}

// runOp executes fn inside a spawned proc and drives the cluster until it
// returns (bounded by MaxOpTime of virtual time).
func (s *Server) runOp(fn func(p *sim.Proc) error) error {
	var (
		done  bool
		opErr error
		c     = s.M.Cluster
	)
	c.Nodes[0].Spawn("ctl:op", func(p *sim.Proc) {
		opErr = fn(p)
		done = true
	})
	if !c.RunUntilDone(sim.Millisecond, c.Now().Add(s.MaxOpTime), func() bool { return done }) {
		return fmt.Errorf("ctlplane: op did not complete within %v of virtual time", s.MaxOpTime)
	}
	return opErr
}

// HandleLine parses one JSON request line, executes it, and returns the
// marshaled response (no trailing newline). Malformed JSON still consumes a
// sequence number so the response stream stays aligned with the input.
func (s *Server) HandleLine(line []byte) []byte {
	var req Request
	if err := json.Unmarshal(line, &req); err != nil {
		s.nextSeq++
		resp := s.fail(Response{V: Version, Seq: s.nextSeq}, fmt.Errorf("ctlplane: bad request: %v", err))
		out, _ := json.Marshal(resp)
		return out
	}
	out, _ := json.Marshal(s.Handle(req))
	return out
}

// RunScript reads newline-delimited JSON requests from r (blank lines and
// lines starting with '#' are skipped) and writes one response line per
// request to w. This is the replayable-session entry point: the byte stream
// written to w is deterministic per seed and script.
func (s *Server) RunScript(r io.Reader, w io.Writer) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		bw.Write(s.HandleLine([]byte(line)))
		bw.WriteByte('\n')
	}
	return sc.Err()
}
