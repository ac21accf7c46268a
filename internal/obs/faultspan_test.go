package obs_test

// Full-stack flight-recorder tests: messages that die mid-pipeline (node
// crash, transport return, corruption storms, NI reboot) must still produce
// well-formed flights — finalized, stage-contiguous, labeled with the stage
// they died in — and the tracer must never leak open spans.

import (
	"bytes"
	"strings"
	"testing"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

// tracedPair builds a 2-node cluster with every message traced and a mapped
// client/server endpoint pair (client on node 0).
func tracedPair(t *testing.T, seed int64) (*hostos.Cluster, *obs.Obs, *core.Endpoint, *core.Endpoint) {
	t.Helper()
	cl := hostos.NewCluster(seed, 2, hostos.DefaultClusterConfig())
	o := cl.EnableObs(obs.Options{SampleEvery: 1})
	b0 := core.Attach(cl.Nodes[0])
	b1 := core.Attach(cl.Nodes[1])
	client, err := b0.NewEndpoint(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	server, err := b1.NewEndpoint(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	client.Map(0, server.Name(), 2)
	server.Map(0, client.Name(), 1)
	return cl, o, client, server
}

// checkWellFormed asserts the flight invariants every finalized flight must
// satisfy, dropped or not: done, stages contiguous from Begin, and for
// completed flights an exact stage-sum/end-to-end match.
func checkWellFormed(t *testing.T, flights []*obs.Flight) {
	t.Helper()
	for _, f := range flights {
		if !f.Done() {
			t.Fatalf("retained flight not finalized: span %d", f.Span)
		}
		prev := f.Begin
		for _, r := range f.Stages {
			if r.Start != prev || r.End < r.Start {
				t.Fatalf("span %d: discontiguous stage %v [%d,%d] after %d",
					f.Span, r.Stage, r.Start, r.End, prev)
			}
			prev = r.End
		}
		if f.DropReason != "" {
			if f.DropStage >= obs.NumStages {
				t.Fatalf("span %d: drop stage %d out of range", f.Span, f.DropStage)
			}
			continue
		}
		var sum sim.Duration
		for _, d := range f.StageTotals() {
			sum += d
		}
		if sum != f.Total() {
			t.Fatalf("span %d: stage sum %v != total %v", f.Span, sum, f.Total())
		}
	}
}

func TestCrashedPeerFlightsDropAsReturned(t *testing.T) {
	cl, o, client, _ := tracedPair(t, 11)
	defer cl.Shutdown()

	// The server node dies before any request is posted: every request must
	// eventually be returned by the transport's prolonged-absence bound and
	// its flight finalized as dropped in the wire stage.
	cl.Nodes[1].Crash()
	const sends = 5
	cl.Nodes[0].Spawn("client", func(p *sim.Proc) {
		for i := 0; i < sends; i++ {
			if err := client.Request(p, 0, 1, [4]uint64{}); err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
		}
		for {
			if client.Poll(p) == 0 {
				p.Sleep(100 * sim.Microsecond)
			}
		}
	})
	cl.RunFor(2 * sim.Second) // >> ReturnToSenderAfter

	if got := o.T.OpenCount(); got != 0 {
		t.Fatalf("open flights = %d after return-to-sender, want 0", got)
	}
	if got := o.T.DroppedFlights(); got != sends {
		t.Fatalf("dropped flights = %d, want %d", got, sends)
	}
	checkWellFormed(t, o.T.Flights())
	for _, f := range o.T.Flights() {
		if f.DropReason == "" {
			continue
		}
		if !strings.HasPrefix(f.DropReason, "returned:") || f.DropStage != obs.StageWire {
			t.Fatalf("span %d dropped as %q at %v, want returned:* at wire",
				f.Span, f.DropReason, f.DropStage)
		}
	}
}

func TestCorruptionStormFlightsStayAccounted(t *testing.T) {
	cl, o, client, server := tracedPair(t, 12)
	defer cl.Shutdown()
	cl.ShardNet(0).SetCorruptProb(0.2)

	server.SetHandler(1, func(p *sim.Proc, tok *core.Token, a [4]uint64, _ []byte) {
		tok.Reply(p, 2, a)
	})
	done := 0
	client.SetHandler(2, func(p *sim.Proc, tok *core.Token, a [4]uint64, _ []byte) { done++ })
	stop := false
	cl.Nodes[1].Spawn("server", func(p *sim.Proc) {
		for !stop {
			if server.Poll(p) == 0 {
				p.Sleep(2 * sim.Microsecond)
			}
		}
	})
	const iters = 100
	cl.Nodes[0].Spawn("client", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			if client.Request(p, 0, 1, [4]uint64{}) != nil {
				return
			}
			for done <= i {
				if client.Poll(p) == 0 {
					p.Sleep(2 * sim.Microsecond)
				}
			}
		}
		stop = true
	})
	cl.RunFor(5 * sim.Second)
	if done != iters {
		t.Fatalf("completed %d of %d exchanges under corruption", done, iters)
	}
	if got := o.T.OpenCount(); got != 0 {
		t.Fatalf("open flights = %d after drain, want 0", got)
	}
	checkWellFormed(t, o.T.Flights())
	// A 20% corruption rate over hundreds of packets must have left
	// crc-drop/retransmit annotations on some flights.
	noted := 0
	for _, f := range o.T.Flights() {
		if len(f.Notes) > 0 {
			noted++
		}
	}
	if noted == 0 {
		t.Fatal("no flight carries a corruption/retransmit note")
	}
}

func TestNIRebootSweepLeavesNoOpenSpans(t *testing.T) {
	cl, o, client, server := tracedPair(t, 13)
	defer cl.Shutdown()

	server.SetHandler(1, func(p *sim.Proc, tok *core.Token, a [4]uint64, _ []byte) {
		tok.Reply(p, 2, a)
	})
	client.SetHandler(2, func(p *sim.Proc, tok *core.Token, a [4]uint64, _ []byte) {})
	cl.Nodes[1].Spawn("server", func(p *sim.Proc) {
		for {
			if server.Poll(p) == 0 {
				p.Sleep(2 * sim.Microsecond)
			}
		}
	})
	cl.Nodes[0].Spawn("client", func(p *sim.Proc) {
		for {
			if client.Request(p, 0, 1, [4]uint64{}) != nil {
				return
			}
			client.Poll(p)
			p.Sleep(50 * sim.Microsecond)
		}
	})
	cl.RunFor(20 * sim.Millisecond)
	// Reboot the server's workstation mid-traffic: resident endpoints and
	// in-flight state are lost; the client's posted messages either come
	// back as returns or stay open forever (their acks died with the NI).
	cl.Nodes[1].Crash()
	cl.RunFor(50 * sim.Millisecond)
	cl.Nodes[1].Restart()
	cl.RunFor(1 * sim.Second)

	// Whatever the transport could not resolve, the export-time sweep must:
	// after it, every span ever opened is finalized and accounted.
	o.T.SweepOpen("test-end", cl.Now())
	if got := o.T.OpenCount(); got != 0 {
		t.Fatalf("open flights = %d after sweep, want 0", got)
	}
	if o.T.Finalized() == 0 {
		t.Fatal("no flights finalized")
	}
	checkWellFormed(t, o.T.Flights())
	for _, f := range o.T.Flights() {
		if f.DropReason == "test-end" && len(f.Stages) == 0 && f.Total() == 0 {
			t.Fatalf("swept span %d carries no information at all", f.Span)
		}
	}
}

// TestClusterTraceExportDeterministic runs the corruption scenario twice with
// the same seed and requires byte-identical Chrome trace exports — the
// property the CI determinism job checks end to end via vnbench -traceout.
func TestClusterTraceExportDeterministic(t *testing.T) {
	run := func() []byte {
		cl, o, client, server := tracedPair(t, 21)
		defer cl.Shutdown()
		cl.ShardNet(0).SetCorruptProb(0.1)
		server.SetHandler(1, func(p *sim.Proc, tok *core.Token, a [4]uint64, _ []byte) {
			tok.Reply(p, 2, a)
		})
		done := 0
		client.SetHandler(2, func(p *sim.Proc, tok *core.Token, a [4]uint64, _ []byte) { done++ })
		stop := false
		cl.Nodes[1].Spawn("server", func(p *sim.Proc) {
			for !stop {
				if server.Poll(p) == 0 {
					p.Sleep(2 * sim.Microsecond)
				}
			}
		})
		cl.Nodes[0].Spawn("client", func(p *sim.Proc) {
			for i := 0; i < 50; i++ {
				if client.Request(p, 0, 1, [4]uint64{}) != nil {
					return
				}
				for done <= i {
					if client.Poll(p) == 0 {
						p.Sleep(2 * sim.Microsecond)
					}
				}
			}
			stop = true
		})
		cl.RunFor(2 * sim.Second)
		o.T.SweepOpen("end", cl.Now())
		var buf bytes.Buffer
		if err := obs.WriteChromeTrace(&buf, []*obs.Tracer{o.T}, nil, o.R); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("identical seeds produced different trace exports")
	}
}
