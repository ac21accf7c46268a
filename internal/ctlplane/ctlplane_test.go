package ctlplane

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"virtnet/internal/hostos"
	"virtnet/internal/vnet"
)

func newServer(seed int64) *Server {
	c := hostos.NewCluster(seed, 4, hostos.DefaultClusterConfig())
	return NewServer(vnet.NewManager(c, 4))
}

// session is a full tenant lifecycle: create → endpoints → traffic → fault →
// query → delete, twice, exercising every op the API defines.
const session = `
# cycle 1
{"op":"create-tenant","tenant":"gold","quota":8,"share":4}
{"op":"add-nic","tenant":"gold","node":0}
{"op":"add-nic","tenant":"gold","node":1}
{"op":"create-network","tenant":"gold","network":"prod"}
{"op":"create-endpoint","tenant":"gold","network":"prod","endpoint":"a","node":0}
{"op":"create-endpoint","tenant":"gold","network":"prod","endpoint":"b","node":1}
{"op":"traffic","tenant":"gold","network":"prod","endpoint":"a","peer":"b","count":40}
{"op":"advance","dur":"50ms"}
{"op":"inject-fault","tenant":"gold","plan":"reboot:node1@1ms"}
{"op":"advance","dur":"50ms"}
{"op":"list-networks"}
{"op":"snapshot"}
{"op":"delete-network","tenant":"gold","network":"prod"}
{"op":"delete-tenant","tenant":"gold"}
# cycle 2: same shape again — the daemon must survive churn
{"op":"create-tenant","tenant":"silver","quota":4,"share":2}
{"op":"add-nic","tenant":"silver","node":2}
{"op":"add-nic","tenant":"silver","node":3}
{"op":"create-network","tenant":"silver","network":"prod"}
{"op":"create-endpoint","tenant":"silver","network":"prod","endpoint":"a"}
{"op":"create-endpoint","tenant":"silver","network":"prod","endpoint":"b"}
{"op":"traffic","tenant":"silver","network":"prod","endpoint":"a","peer":"b","count":40}
{"op":"advance","dur":"50ms"}
{"op":"snapshot"}
{"op":"delete-tenant","tenant":"silver"}
{"op":"list-networks"}
`

func runSession(t *testing.T, seed int64) string {
	t.Helper()
	s := newServer(seed)
	var out bytes.Buffer
	if err := s.RunScript(strings.NewReader(session), &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestScriptedSessionDeterministic(t *testing.T) {
	a := runSession(t, 7)
	b := runSession(t, 7)
	if a != b {
		t.Fatalf("scripted session is not byte-deterministic:\n--- run1 ---\n%s--- run2 ---\n%s", a, b)
	}
	// Every response must be OK and sequenced 1..N in order.
	var seq uint64
	for _, line := range strings.Split(strings.TrimSpace(a), "\n") {
		var resp Response
		if err := json.Unmarshal([]byte(line), &resp); err != nil {
			t.Fatalf("bad response line %q: %v", line, err)
		}
		seq++
		if resp.Seq != seq {
			t.Fatalf("response seq = %d, want %d", resp.Seq, seq)
		}
		if !resp.OK {
			t.Fatalf("op %q (seq %d) failed: %s", resp.Op, resp.Seq, resp.Err)
		}
	}
	if seq != 25 {
		t.Fatalf("executed %d ops, want 25", seq)
	}
}

func TestVersionAndSequenceGuards(t *testing.T) {
	s := newServer(1)
	if resp := s.Handle(Request{V: 99, Op: "list-networks"}); resp.OK {
		t.Fatal("version 99 accepted")
	}
	if resp := s.Handle(Request{Seq: 5, Op: "list-networks"}); resp.OK {
		t.Fatal("out-of-order sequence accepted")
	} else if !strings.Contains(resp.Err, "sequence mismatch") {
		t.Fatalf("unexpected error: %s", resp.Err)
	}
	// Explicitly asserting the correct next seq works.
	if resp := s.Handle(Request{Seq: 3, Op: "list-networks"}); !resp.OK {
		t.Fatalf("correct explicit seq refused: %s", resp.Err)
	}
}

func TestErrorsSurfaceTyped(t *testing.T) {
	s := newServer(1)
	s.Handle(Request{Op: "create-tenant", Tenant: "red"})
	s.Handle(Request{Op: "create-tenant", Tenant: "blue"})
	node := 0
	s.Handle(Request{Op: "add-nic", Tenant: "red", Node: &node})
	node1 := 1
	s.Handle(Request{Op: "add-nic", Tenant: "blue", Node: &node1})
	s.Handle(Request{Op: "create-network", Tenant: "red", Network: "n"})
	s.Handle(Request{Op: "create-network", Tenant: "blue", Network: "n"})
	s.Handle(Request{Op: "create-endpoint", Tenant: "red", Network: "n", Endpoint: "a"})
	s.Handle(Request{Op: "create-endpoint", Tenant: "blue", Network: "n", Endpoint: "b"})

	// Traffic to an endpoint of another network does not exist in this
	// network's namespace — the isolation boundary is the namespace itself.
	resp := s.Handle(Request{Op: "traffic", Tenant: "red", Network: "n", Endpoint: "a", Peer: "b", Count: 1})
	if resp.OK {
		t.Fatal("cross-network traffic accepted")
	}
	if !strings.Contains(resp.Err, "no such object") {
		t.Fatalf("unexpected error: %s", resp.Err)
	}

	// Fabric-wide fault from a tenant is refused as out of scope.
	resp = s.Handle(Request{Op: "inject-fault", Tenant: "red", Plan: "spine:0@1ms+1ms"})
	if resp.OK || !strings.Contains(resp.Err, "not tenant-scopable") {
		t.Fatalf("spine fault: ok=%v err=%s", resp.OK, resp.Err)
	}

	// An advance past sim.Duration's range used to wrap to a negative
	// duration.
	for _, dur := range []string{"1e10s", "NaNs"} {
		resp = s.Handle(Request{Op: "advance", Dur: dur})
		if resp.OK || !strings.Contains(resp.Err, "bad duration") {
			t.Fatalf("advance %s: ok=%v err=%s", dur, resp.OK, resp.Err)
		}
	}

	resp = s.Handle(Request{Op: "bogus"})
	if resp.OK || !strings.Contains(resp.Err, "unknown op") {
		t.Fatalf("bogus op: ok=%v err=%s", resp.OK, resp.Err)
	}
}

func TestQueryMetrics(t *testing.T) {
	s := newServer(1)
	s.Handle(Request{Op: "create-tenant", Tenant: "t"})
	resp := s.Handle(Request{Op: "query-metrics", Prefix: "vnet."})
	if !resp.OK {
		t.Fatalf("query-metrics: %s", resp.Err)
	}
	var ms []Metric
	if err := json.Unmarshal(resp.Result, &ms); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range ms {
		if m.Name == "vnet.tenant.create" && m.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("vnet.tenant.create not in metrics: %v", ms)
	}
}
