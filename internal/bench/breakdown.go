package bench

import (
	"fmt"
	"io"
	"slices"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

// breakdownRow reproduces the paper's §4 accounting of where the microseconds
// go, using the cross-layer flight recorder instead of hand-placed timers:
// every message is sampled, each layer marks its stage boundary, and the
// per-stage means decompose the end-to-end one-way latency exactly (stage
// intervals are contiguous by construction, so the stage sum carries no
// residual). An independent app-side measurement — the client timestamps the
// post, the server handler timestamps its first instruction — cross-checks
// the recorder's end-to-end number. The final table shows how the wrr-wait
// stage inflates as one NI's weighted round-robin serves more and more
// backlogged sender endpoints (§5/§6 endpoint overcommit).
func breakdownRow(w io.Writer, p Params) error {
	header(w, "§4 — per-stage latency decomposition (cross-layer tracing)")
	const iters = 300

	fmt.Fprintf(w, "short AM request, %d serial ping-pongs node0 -> node1:\n", iters)
	dec, appUs, o := breakdownPingPong(p.Seed, iters, 0)
	fmt.Fprint(w, dec[obs.KindShort].Render())
	fmt.Fprintf(w, "  app-side one-way mean %.3f us (independent timestamps)\n", appUs)
	fmt.Fprintf(w, "reply leg (node1 -> node0):\n")
	fmt.Fprint(w, dec[obs.KindReply].Render())
	if p.TraceOut != "" {
		// The Chrome trace-event JSON export of the short-AM phase (load it
		// at https://ui.perfetto.dev).
		if err := writeTrace(p.TraceOut, func(f io.Writer) error { return obs.WriteChromeTrace(f, []*obs.Tracer{o.T}, nil, o.R) }); err != nil {
			return err
		}
	}
	if p.Metrics {
		fmt.Fprint(w, o.R.Dashboard())
	}

	fmt.Fprintf(w, "\n8 KB bulk request, %d serial ping-pongs node0 -> node1:\n", iters)
	dec, appUs, o = breakdownPingPong(p.Seed, iters, 8192)
	fmt.Fprint(w, dec[obs.KindBulk].Render())
	fmt.Fprintf(w, "  app-side one-way mean %.3f us (independent timestamps)\n", appUs)
	if p.Metrics {
		fmt.Fprint(w, o.R.Dashboard())
	}

	const perEP = 96
	frames := hostos.DefaultClusterConfig().NIC.Frames
	fmt.Fprintf(w, "\nwrr-wait inflation under endpoint overcommit (%d NI frames, %d msgs per endpoint):\n",
		frames, perEP)
	fmt.Fprintf(w, "%6s %8s %14s %12s %10s\n", "K", "msgs", "wrr-wait(us)", "e2e(us)", "x vs K=1")
	var base float64
	for _, k := range []int{1, 2, 4, 8, 16} {
		d := breakdownWRR(p.Seed, k, perEP)
		wrrUs := float64(d.Stage[obs.StageWRRWait]) / 1e3 / float64(d.N)
		e2eUs := float64(d.Total) / 1e3 / float64(d.N)
		if k == 1 {
			base = wrrUs
		}
		fmt.Fprintf(w, "%6d %8d %14.3f %12.3f %9.1fx\n", k, d.N, wrrUs, e2eUs, wrrUs/base)
	}
	return nil
}

// breakdownPingPong runs iters serial request/reply exchanges between a
// client on node 0 and a server on node 1, tracing every message, and
// returns the per-kind decomposition plus the app-side one-way mean (µs).
// The client's timestamp immediately before Request coincides with the
// flight's opening mark (the library preamble is free when credits are
// available), and the flight ends exactly when the handler body starts, so
// the two measurement paths must agree to the nanosecond.
func breakdownPingPong(seed int64, iters, payload int) ([obs.NumKinds]obs.Decomp, float64, *obs.Obs) {
	cl := hostos.NewCluster(seed, 2, hostos.DefaultClusterConfig())
	defer cl.Shutdown()
	o := cl.EnableObs(obs.Options{SampleEvery: 1, SnapshotEvery: 5 * sim.Millisecond})
	b0 := core.Attach(cl.Nodes[0])
	b1 := core.Attach(cl.Nodes[1])
	client, _ := b0.NewEndpoint(1, 4)
	server, _ := b1.NewEndpoint(2, 4)
	client.Map(0, server.Name(), 2)
	server.Map(0, client.Name(), 1)

	var oneWay sim.Duration
	server.SetHandler(1, func(p *sim.Proc, tok *core.Token, a [4]uint64, _ []byte) {
		oneWay += p.Now().Sub(sim.Time(a[0]))
		tok.Reply(p, 2, a)
	})
	done := 0
	client.SetHandler(2, func(p *sim.Proc, tok *core.Token, a [4]uint64, _ []byte) {
		done++
	})

	stop := false
	cl.Nodes[1].Spawn("server", func(p *sim.Proc) {
		for !stop {
			if server.Poll(p) == 0 {
				p.Sleep(2 * sim.Microsecond)
			}
		}
	})
	data := make([]byte, payload)
	cl.Nodes[0].Spawn("client", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			t0 := p.Now()
			var err error
			if payload > 0 {
				err = client.RequestBulk(p, 0, 1, data, [4]uint64{uint64(t0)})
			} else {
				err = client.Request(p, 0, 1, [4]uint64{uint64(t0)})
			}
			if err != nil {
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
	// Chunked run: stop soon after the workload completes so the snapshot
	// ticker doesn't pad the registry timeline (and the trace export) with a
	// long idle tail.
	cl.RunUntilDone(10*sim.Millisecond, sim.Time(0).Add(2*sim.Second), func() bool { return stop })
	o.T.SweepOpen("end-of-run", cl.Now())
	return obs.Decompose(o.T.Flights()), float64(oneWay) / 1e3 / float64(iters), o
}

// breakdownWRR runs K sender endpoints on one node, each streaming perEP
// short requests to its own sink endpoint on a second node, and returns the
// short-request decomposition. With K backlogged endpoints the NI's weighted
// round-robin hands each endpoint 1/K of the send slots, so the wrr-wait
// stage should scale roughly linearly in K while the other stages stay put.
func breakdownWRR(seed int64, k, perEP int) obs.Decomp {
	cl := hostos.NewCluster(seed, 2, hostos.DefaultClusterConfig())
	defer cl.Shutdown()
	o := cl.EnableObs(obs.Options{SampleEvery: 1})
	b0 := core.Attach(cl.Nodes[0])
	b1 := core.Attach(cl.Nodes[1])

	got := make([]int, k)
	senders := make([]*core.Endpoint, k)
	for i := 0; i < k; i++ {
		snd, _ := b0.NewEndpoint(core.Key(1+i), 4)
		sink, _ := b1.NewEndpoint(core.Key(100+i), 4)
		snd.Map(0, sink.Name(), core.Key(100+i))
		sink.Map(0, snd.Name(), core.Key(1+i))
		sink.SetHandler(1, func(p *sim.Proc, tok *core.Token, a [4]uint64, _ []byte) {
			tok.Reply(p, 2, a)
		})
		snd.SetHandler(2, func(p *sim.Proc, tok *core.Token, a [4]uint64, _ []byte) {
			got[i]++
		})
		senders[i] = snd
	}

	stop := false
	cl.Nodes[1].Spawn("sink-poll", func(p *sim.Proc) {
		for !stop {
			if b1.Poll(p) == 0 {
				p.Sleep(2 * sim.Microsecond)
			}
		}
	})
	for i := 0; i < k; i++ {
		snd := senders[i]
		cl.Nodes[0].Spawn("sender", func(p *sim.Proc) {
			for j := 0; j < perEP; j++ {
				if snd.Request(p, 0, 1, [4]uint64{}) != nil {
					return
				}
				snd.Poll(p)
			}
			for got[i] < perEP {
				if snd.Poll(p) == 0 {
					p.Sleep(2 * sim.Microsecond)
				}
			}
			if !slices.ContainsFunc(got, func(g int) bool { return g < perEP }) {
				stop = true
			}
		})
	}
	cl.RunUntilDone(10*sim.Millisecond, sim.Time(0).Add(2*sim.Second), func() bool { return stop })
	o.T.SweepOpen("end-of-run", cl.Now())
	return obs.Decompose(o.T.Flights())[obs.KindShort]
}
