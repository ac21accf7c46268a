package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"

	"virtnet/internal/ctlplane"
)

// TestDaemonSurvivesTenantChurn drives the daemon over its unix socket
// through two full tenant create→traffic→fault→delete cycles without a
// restart, which is the acceptance bar for "long-lived".
func TestDaemonSurvivesTenantChurn(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "vnproxyd.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := newDaemon(1, 4, 4)
	served := make(chan struct{})
	go func() {
		serve(ln, srv)
		close(served)
	}()
	defer func() {
		ln.Close()
		<-served
	}()

	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd := bufio.NewReader(conn)

	do := func(req string) ctlplane.Response {
		t.Helper()
		if _, err := fmt.Fprintln(conn, req); err != nil {
			t.Fatal(err)
		}
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		var resp ctlplane.Response
		if err := json.Unmarshal([]byte(line), &resp); err != nil {
			t.Fatalf("bad response %q: %v", line, err)
		}
		return resp
	}

	ok := func(req string) ctlplane.Response {
		t.Helper()
		resp := do(req)
		if !resp.OK {
			t.Fatalf("request %s failed: %s", req, resp.Err)
		}
		return resp
	}

	for cycle, tenant := range []string{"alpha", "beta"} {
		ok(fmt.Sprintf(`{"op":"create-tenant","tenant":%q,"quota":8,"share":2}`, tenant))
		ok(fmt.Sprintf(`{"op":"add-nic","tenant":%q,"node":0}`, tenant))
		ok(fmt.Sprintf(`{"op":"add-nic","tenant":%q,"node":%d}`, tenant, 1+cycle))
		ok(fmt.Sprintf(`{"op":"create-network","tenant":%q,"network":"prod"}`, tenant))
		ok(fmt.Sprintf(`{"op":"create-endpoint","tenant":%q,"network":"prod","endpoint":"client","node":0}`, tenant))
		ok(fmt.Sprintf(`{"op":"create-endpoint","tenant":%q,"network":"prod","endpoint":"server","node":%d}`, tenant, 1+cycle))
		ok(fmt.Sprintf(`{"op":"traffic","tenant":%q,"network":"prod","endpoint":"client","peer":"server","count":30}`, tenant))
		ok(`{"op":"advance","dur":"40ms"}`)
		ok(fmt.Sprintf(`{"op":"inject-fault","tenant":%q,"plan":"reboot:node1@1ms"}`, tenant))
		ok(`{"op":"advance","dur":"40ms"}`)

		snap := ok(fmt.Sprintf(`{"op":"snapshot","tenant":%q}`, tenant))
		var got struct {
			Tenants []struct {
				Name      string `json:"name"`
				Delivered int64  `json:"delivered"`
			} `json:"tenants"`
		}
		if err := json.Unmarshal(snap.Result, &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Tenants) != 1 || got.Tenants[0].Name != tenant {
			t.Fatalf("cycle %d snapshot tenants = %+v", cycle, got.Tenants)
		}
		if got.Tenants[0].Delivered == 0 {
			t.Fatalf("cycle %d: tenant %s delivered no traffic", cycle, tenant)
		}

		ok(fmt.Sprintf(`{"op":"delete-tenant","tenant":%q}`, tenant))
		list := ok(`{"op":"list-networks"}`)
		if string(list.Result) != "null" {
			t.Fatalf("cycle %d: networks remain after delete: %s", cycle, list.Result)
		}
	}

	// A second connection reuses the same live cluster (no restart).
	conn2, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	rd2 := bufio.NewReader(conn2)
	fmt.Fprintln(conn2, `{"op":"query-metrics","prefix":"vnet.tenant.delete"}`)
	line, err := rd2.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var resp ctlplane.Response
	if err := json.Unmarshal([]byte(line), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("metrics over second conn: %s", resp.Err)
	}
	var ms []ctlplane.Metric
	if err := json.Unmarshal(resp.Result, &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Value != 2 {
		t.Fatalf("tenant.delete metric = %v, want 2 deletes visible across connections", ms)
	}
}

// TestScriptedSession replays testdata/session.ctl on a daemon built with the
// flag defaults (what `vnproxyd -script` does) and compares the response
// stream with testdata/session.txt byte for byte, twice: the stream is a pure
// function of the seed and the requests. Regenerate the transcript on purpose
// with `go run ./cmd/vnproxyd -script cmd/vnproxyd/testdata/session.ctl`.
func TestScriptedSession(t *testing.T) {
	script, err := os.ReadFile(filepath.Join("testdata", "session.ctl"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "session.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= 2; run++ {
		srv := newDaemon(1, 8, 4)
		var got bytes.Buffer
		err := srv.RunScript(bytes.NewReader(script), &got)
		srv.M.Cluster.Shutdown()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("run %d departs from testdata/session.txt:\n--- want\n%s--- got\n%s", run, want, got.Bytes())
		}
	}
}
