package ctlplane

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"virtnet/internal/fault"
	"virtnet/internal/sim"
)

// tenantsOps is the op sequence of vnbench's tenants row on a 4-node
// cluster: three tenants with WRR shares 4:2:1 and client/server pairs,
// traffic, an advance, a tenant-scoped reboot, another advance, teardown.
const tenantsOps = `{"op":"create-tenant","tenant":"gold","quota":8,"share":4}
{"op":"add-nic","tenant":"gold","node":0}
{"op":"add-nic","tenant":"gold","node":1}
{"op":"create-network","tenant":"gold","network":"prod"}
{"op":"create-endpoint","tenant":"gold","network":"prod","endpoint":"c0","node":0}
{"op":"create-endpoint","tenant":"gold","network":"prod","endpoint":"s0","node":1}
{"op":"create-tenant","tenant":"silver","quota":8,"share":2}
{"op":"add-nic","tenant":"silver","node":0}
{"op":"add-nic","tenant":"silver","node":2}
{"op":"create-network","tenant":"silver","network":"prod"}
{"op":"create-endpoint","tenant":"silver","network":"prod","endpoint":"c0","node":0}
{"op":"create-endpoint","tenant":"silver","network":"prod","endpoint":"s0","node":2}
{"op":"create-tenant","tenant":"bronze","quota":8,"share":1}
{"op":"add-nic","tenant":"bronze","node":0}
{"op":"add-nic","tenant":"bronze","node":3}
{"op":"create-network","tenant":"bronze","network":"prod"}
{"op":"create-endpoint","tenant":"bronze","network":"prod","endpoint":"c0","node":0}
{"op":"create-endpoint","tenant":"bronze","network":"prod","endpoint":"s0","node":3}
{"op":"traffic","tenant":"gold","network":"prod","endpoint":"c0","peer":"s0","count":100}
{"op":"traffic","tenant":"silver","network":"prod","endpoint":"c0","peer":"s0","count":100}
{"op":"traffic","tenant":"bronze","network":"prod","endpoint":"c0","peer":"s0","count":100}
{"op":"advance","dur":"50ms"}
{"op":"inject-fault","tenant":"gold","plan":"reboot:node1@1ms+5ms"}
{"op":"advance","dur":"20ms"}
{"op":"delete-tenant","tenant":"gold"}
{"op":"delete-tenant","tenant":"silver"}
{"op":"delete-tenant","tenant":"bronze"}`

// FuzzHandleLine runs a short script of request lines, one per line of the
// input, through HandleLine on a fresh 4-node cluster. It must never panic;
// every response must be valid JSON whose seq is one more than the previous
// response's; and a response must carry an error exactly when it is not ok.
// A script is at most 32 lines, and one that advances more than 50 ms at a
// time or asks for more than 100 messages of traffic is skipped, so each
// input runs in milliseconds.
func FuzzHandleLine(f *testing.F) {
	session, err := os.ReadFile("../../cmd/vnproxyd/testdata/session.ctl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(session)
	f.Add([]byte(tenantsOps))
	f.Fuzz(func(t *testing.T, script []byte) {
		lines := bytes.Split(script, []byte("\n"))
		if len(lines) > 32 {
			t.Skip("script longer than 32 lines")
		}
		for _, line := range lines {
			var req Request
			if json.Unmarshal(line, &req) != nil {
				continue
			}
			if d, err := fault.ParseDur(req.Dur); req.Op == "advance" && err == nil && d > 50*sim.Millisecond || req.Count > 100 {
				t.Skip("script runs too long")
			}
		}
		s := newServer(1)
		defer s.M.Cluster.Shutdown()
		s.MaxOpTime = 50 * sim.Millisecond
		for i, line := range lines {
			out := s.HandleLine(line)
			var resp Response
			if err := json.Unmarshal(out, &resp); err != nil {
				t.Fatalf("line %d %q: response %q is not JSON: %v", i+1, line, out, err)
			}
			if resp.Seq != uint64(i+1) {
				t.Fatalf("line %d %q: response seq %d, want %d", i+1, line, resp.Seq, i+1)
			}
			if resp.OK == (resp.Err != "") {
				t.Fatalf("line %d %q: ok %v with err %q", i+1, line, resp.OK, resp.Err)
			}
		}
	})
}
