package bench

import (
	"fmt"
	"io"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

// loiterResult measures what the WRR loiter bound (§5.2) protects: a
// latency-sensitive endpoint sharing an NI with a bulk-streaming endpoint.
// Without the bound, the NI stays on the bulk endpoint while it has packets
// to send, and the small endpoint's messages wait arbitrarily long.
type loiterResult struct {
	BulkMBps  float64      // the hog's delivered bandwidth
	PingP50   sim.Duration // the meek endpoint's median RTT
	PingP99   sim.Duration
	PingCount int
}

// runLoiterAblation runs a bulk hog (streaming to three sinks, so its
// logical channels never all exhaust) and a small-message ping endpoint on
// the same node, with the loiter bound enabled or disabled.
func runLoiterAblation(noLoiter bool, seed int64) loiterResult {
	ccfg := hostos.DefaultClusterConfig()
	if noLoiter {
		ccfg.NIC.LoiterMsgs = 1 << 30
		ccfg.NIC.LoiterTime = 1 << 40
	}
	const sinks = 3
	cl := hostos.NewCluster(seed+1, sinks+2, ccfg)
	defer cl.Shutdown()

	// Node 0 hosts both endpoints; hog streams to nodes 1..sinks, ping to
	// the last node.
	bHog := core.Attach(cl.Nodes[0])
	hog, _ := bHog.NewEndpoint(1, sinks+1)
	bPing := core.Attach(cl.Nodes[0])
	ping, _ := bPing.NewEndpoint(2, 4)
	var sinkEPs []*core.Endpoint
	for i := 0; i < sinks; i++ {
		bs := core.Attach(cl.Nodes[1+i])
		se, _ := bs.NewEndpoint(core.Key(10+i), 4)
		sinkEPs = append(sinkEPs, se)
		hog.Map(i, se.Name(), core.Key(10+i))
		se.Map(0, hog.Name(), 1)
	}
	bEcho := core.Attach(cl.Nodes[sinks+1])
	echo, _ := bEcho.NewEndpoint(4, 4)
	ping.Map(0, echo.Name(), 4)
	echo.Map(0, ping.Name(), 2)

	for _, se := range sinkEPs {
		se.SetHandler(1, func(p *sim.Proc, tok *core.Token, a [4]uint64, _ []byte) {
			tok.Reply(p, 2, a)
		})
	}
	hog.SetHandler(2, func(p *sim.Proc, tok *core.Token, a [4]uint64, _ []byte) {})
	echo.SetHandler(1, func(p *sim.Proc, tok *core.Token, a [4]uint64, _ []byte) {
		tok.Reply(p, 2, a)
	})
	hist := obs.NewHist()
	pong := 0
	ping.SetHandler(2, func(p *sim.Proc, tok *core.Token, a [4]uint64, _ []byte) {
		hist.Observe(p.Now().Sub(sim.Time(a[0])))
		pong++
	})

	const window = 400 * sim.Millisecond
	stop := false
	bulkBytes := 0
	payload := make([]byte, 8192)
	cl.Nodes[0].Spawn("hog", func(p *sim.Proc) {
		for i := 0; !stop; i++ {
			if hog.RequestBulk(p, i%sinks, 1, payload, [4]uint64{}) != nil {
				return
			}
			bulkBytes += len(payload)
			hog.Poll(p)
		}
	})
	for i := 0; i < sinks; i++ {
		se := sinkEPs[i]
		cl.Nodes[1+i].Spawn("sink", func(p *sim.Proc) {
			for !stop {
				if se.Poll(p) == 0 {
					p.Sleep(5 * sim.Microsecond)
				}
			}
		})
	}
	cl.Nodes[sinks+1].Spawn("echo", func(p *sim.Proc) {
		for !stop {
			if echo.Poll(p) == 0 {
				p.Sleep(5 * sim.Microsecond)
			}
		}
	})
	cl.Nodes[0].Spawn("ping", func(p *sim.Proc) {
		for !stop {
			target := pong + 1
			if ping.Request(p, 0, 1, [4]uint64{uint64(p.Now())}) != nil {
				return
			}
			for pong < target && !stop {
				if ping.Poll(p) == 0 {
					p.Sleep(5 * sim.Microsecond)
				}
			}
			p.Sleep(500 * sim.Microsecond)
		}
	})

	cl.RunFor(window)
	stop = true
	res := loiterResult{
		BulkMBps:  float64(bulkBytes) / window.Seconds() / 1e6,
		PingCount: hist.Count(),
	}
	if hist.Count() == 0 {
		// Total starvation: report the window as a censored latency.
		res.PingP50, res.PingP99 = window, window
		return res
	}
	res.PingP50 = hist.Quantile(0.5)
	res.PingP99 = hist.Quantile(0.99)
	return res
}

func ablationsRow(w io.Writer, p Params) error {
	header(w, "§6.4.1 — design ablations")
	const n = 24

	// A slower per-request server (40 us) lets receive queues back up, so
	// endpoints are evicted with work pending — the §6.4.1 precondition for
	// the single-threaded server writing replies into non-resident
	// endpoints.
	hw := 40 * sim.Microsecond
	base := runClientServer(csConfig{Clients: n, Mode: modeST, Frames: 8,
		Seed: p.Seed, HandlerWork: hw})
	noRW := runClientServer(csConfig{Clients: n, Mode: modeST, Frames: 8,
		Seed: p.Seed, HandlerWork: hw, DisableHostRW: true})
	fmt.Fprintf(w, "on-host r/w state (ST, %d clients, 8 frames, 40us handler):\n", n)
	fmt.Fprintf(w, "  with (paper design):    %8.0f msgs/s, %4.0f remaps/s\n", base.AggregateMsgs, base.RemapsPerSec)
	fmt.Fprintf(w, "  without (orig. design): %8.0f msgs/s, %4.0f remaps/s  (paper: ST falls to a few %% of peak)\n",
		noRW.AggregateMsgs, noRW.RemapsPerSec)

	fmt.Fprintf(w, "replacement policy (ST, %d clients, 8 frames):\n", n)
	for _, pol := range []hostos.ReplacementPolicy{hostos.ReplaceRandom, hostos.ReplaceLRU, hostos.ReplaceFIFO} {
		r := runClientServer(csConfig{Clients: n, Mode: modeST, Frames: 8,
			Seed: p.Seed, Policy: pol})
		fmt.Fprintf(w, "  %-7s %8.0f msgs/s, %4.0f remaps/s\n", pol, r.AggregateMsgs, r.RemapsPerSec)
	}

	fmt.Fprintf(w, "logical channels per NI pair (single-client 8 KB stream):\n")
	for _, ch := range []int{1, 2, 4, 16} {
		r := runClientServer(csConfig{Clients: 1, Mode: modeOneVN, Frames: 8,
			MsgBytes: 8192, Seed: p.Seed, Channels: ch})
		fmt.Fprintf(w, "  %2d channels: %6.1f MB/s  (stop-and-wait masking of ack latency)\n", ch, r.AggregateMBps)
	}

	fmt.Fprintf(w, "loiter bound (bulk hog + ping endpoint sharing one NI):\n")
	on := runLoiterAblation(false, p.Seed)
	off := runLoiterAblation(true, p.Seed)
	fmt.Fprintf(w, "  bounded (64 msgs/4 ms): hog %5.1f MB/s, %d pings, p50 %v p99 %v\n",
		on.BulkMBps, on.PingCount, on.PingP50, on.PingP99)
	fmt.Fprintf(w, "  unbounded:              hog %5.1f MB/s, %d pings, p50 %v p99 %v\n",
		off.BulkMBps, off.PingCount, off.PingP50, off.PingP99)
	return nil
}
