package bench

import (
	"fmt"
	"io"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/migrate"
	"virtnet/internal/netsim"
	"virtnet/internal/nic"
	"virtnet/internal/sim"
)

// migrateRow demonstrates live endpoint migration (extension; DESIGN.md S20):
// an echo server endpoint hops around the cluster while three clients keep a
// continuous 16-byte request stream on it. Reported per move: the blackout
// (freeze at the source to install at the destination) and the transfer
// size. Reported overall: exactly-once accounting — every request must get
// exactly one reply, with zero losses, zero duplicates, and zero user-level
// return-to-sender events (redirects are transparent).
func migrateRow(w io.Writer, p Params) error {
	header(w, "live endpoint migration — blackout under continuous 16 B request load")
	const serverKey = core.Key(77)
	const nPer = 2000
	hops := []int{1, 2, 3, 0}
	c := hostos.NewCluster(p.Seed, 4, hostos.DefaultClusterConfig())
	defer c.Shutdown()
	svc, err := migrate.NewService(c)
	if err != nil {
		return fmt.Errorf("migration service: %w", err)
	}
	var fail failure

	served := 0
	server, err := spawnEchoServer(c, svc, true, 0, serverKey, &served, nil)
	if err != nil {
		return err
	}
	epID := server.Segment().EP.ID

	// Three clients on nodes 1-3 stream 16-byte requests (two uint64 words)
	// through the whole sequence of moves.
	type clientStat struct {
		ep      *core.Endpoint
		replies map[uint64]int
		returns int
		done    bool
		lastAt  sim.Time
		maxGap  sim.Duration
	}
	clients := make([]*clientStat, 3)
	for i := range clients {
		node := i + 1
		b := core.Attach(c.Nodes[node])
		b.SetResolver(svc.Dir)
		ep, err := b.NewEndpoint(core.Key(1000+node), 8)
		if err != nil {
			return fmt.Errorf("client endpoint: %w", err)
		}
		cs := &clientStat{ep: ep, replies: make(map[uint64]int)}
		clients[i] = cs
		ep.SetHandler(hRep, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
			if cs.lastAt != 0 {
				if gap := p.Now().Sub(cs.lastAt); gap > cs.maxGap {
					cs.maxGap = gap
				}
			}
			cs.lastAt = p.Now()
			cs.replies[args[0]]++
		})
		ep.SetReturnHandler(func(p *sim.Proc, _ nic.NackReason, _, _ int, _ [4]uint64, _ []byte) {
			cs.returns++
		})
		if err := ep.Map(0, server.Name(), serverKey); err != nil {
			return fmt.Errorf("client map: %w", err)
		}
		c.Nodes[node].Spawn("client", func(p *sim.Proc) {
			for id := 1; id <= nPer; id++ {
				if err := cs.ep.Request(p, 0, hReq, [4]uint64{uint64(id), uint64(node)}); err != nil {
					fail.failf("client %d request: %w", node, err)
					return
				}
				p.Sleep(40 * sim.Microsecond)
			}
			for len(cs.replies) < nPer {
				cs.ep.Poll(p)
				p.Sleep(10 * sim.Microsecond)
			}
			cs.done = true
		})
	}

	// The mover walks the endpoint around the cluster mid-stream.
	type moveRec struct {
		from, to netsim.NodeID
		stats    *migrate.MoveStats
	}
	var moves []moveRec
	c.Nodes[0].Spawn("mover", func(p *sim.Proc) {
		for _, dst := range hops {
			p.Sleep(10 * sim.Millisecond)
			h, _ := svc.Endpoint(epID)
			from := h.Bundle().Node.ID
			if from == netsim.NodeID(dst) {
				continue
			}
			s, err := svc.Move(p, h, netsim.NodeID(dst))
			if err != nil {
				fail.failf("move %d->%d: %w", from, dst, err)
				return
			}
			moves = append(moves, moveRec{from: from, to: netsim.NodeID(dst), stats: s})
		}
	})

	c.RunUntilDone(50*sim.Millisecond, sim.Time(0).Add(60*sim.Second), func() bool {
		alldone := len(moves) >= len(hops)
		for _, cs := range clients {
			alldone = alldone && cs.done
		}
		return alldone || fail.err != nil
	})
	if fail.err != nil {
		return fail.err
	}

	fmt.Fprintf(w, "%d moves under load (3 clients x %d requests):\n", len(moves), nPer)
	fmt.Fprintf(w, "%-6s %-8s %12s %10s %8s\n", "move", "route", "blackout", "bytes", "chunks")
	for i, m := range moves {
		fmt.Fprintf(w, "%-6d %d -> %-4d %12v %10d %8d\n",
			i+1, m.from, m.to, m.stats.Blackout, m.stats.Bytes, m.stats.Chunks)
	}

	sent := 3 * nPer
	replied, dup, returns := 0, 0, 0
	var redirects, refreshes int64
	var maxGap sim.Duration
	for _, cs := range clients {
		if !cs.done {
			fmt.Fprintln(w, "FAIL: a client did not complete (lost messages or deadlock)")
		}
		keys, surplus := tally(cs.replies)
		replied += keys
		dup += surplus
		returns += cs.returns
		redirects += cs.ep.Stats.Redirects
		refreshes += cs.ep.Stats.Refreshes
		if cs.maxGap > maxGap {
			maxGap = cs.maxGap
		}
	}
	fmt.Fprintf(w, "exactly-once: %d sent, %d replied, %d served — lost %d, duplicates %d (both must be 0)\n",
		sent, replied, served, sent-replied, dup)
	fmt.Fprintf(w, "redirects absorbed by the library: %d (%d translation refreshes); user-level returns: %d\n",
		redirects, refreshes, returns)
	fmt.Fprintf(w, "directory: %d publishes, %d resolves; name version now %d\n",
		svc.Dir.C.Get("dir.publish"), svc.Dir.C.Get("dir.resolve"), svc.Dir.Version(epID))
	fmt.Fprintf(w, "worst client-observed service gap: %v (covers blackout + redirect retries)\n", maxGap)
	if lost := sent - replied; lost != 0 || dup != 0 {
		return fmt.Errorf("exactly-once violated: lost %d, duplicates %d", lost, dup)
	}
	return nil
}
