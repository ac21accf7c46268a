package bench

import (
	"errors"
	"fmt"
	"io"

	"virtnet/internal/coll"
	"virtnet/internal/core"
	"virtnet/internal/fault"
	"virtnet/internal/hostos"
	"virtnet/internal/migrate"
	"virtnet/internal/mpi"
	"virtnet/internal/netsim"
	"virtnet/internal/nic"
	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

// meshPeer is one endpoint of the mesh soak and its traffic ledger.
type meshPeer struct {
	id     int
	ep     *core.Endpoint // current live handle; swapped on migration
	node   *hostos.Node
	sent   int64
	gotRep int64
	served int64
	// retReq counts this peer's requests returned undeliverable; retRep
	// counts replies it issued that came back.
	retReq int64
	retRep int64
}

// meshSoak is vnstress's default mode: random request/reply traffic across
// a random endpoint mesh under packet loss, endpoint churn (create/free
// while traffic flows), periodic spine hot-swaps, live endpoint migration
// churn, and overcommitted NI frames. At the end it checks:
//
//   - exactly-once delivery for every request that was not returned,
//   - credit conservation (windows return to full once quiescent),
//   - no leaked endpoint frames,
//   - the cluster remains live (no deadlock) throughout.
//
// A migrator live-moves the peer endpoints round-robin between nodes while
// the traffic runs, so every invariant must also hold across repeated
// relocations under loss and frame overcommit. With FaultPlan a
// scripted fault schedule runs against the mesh; crashed nodes are allowed
// to lose their bounded in-flight window, and the invariants are re-checked
// with exactly that allowance — anything beyond it is still a violation.
// With Coll an mpi world rides on the same cluster running continuous
// small-vector allreduce rounds; its invariant is no-hang: every rank either
// completes its rounds or (when the plan crashes a node) surfaces
// ErrUnreachable. With Dash the unified metrics registry prints a dashboard
// every 100 ms of simulated time; it is observability-only, so outputs with
// and without it otherwise agree.
func meshSoak(w io.Writer, p SoakParams) error {
	nodes := p.Nodes
	var fail failure
	cfg := hostos.DefaultClusterConfig()
	cfg.Net.DropProb = p.Drop
	cfg.NIC.Frames = 8
	cl := hostos.NewCluster(p.Seed, nodes, cfg)
	defer cl.Shutdown()

	// Metrics-only observability (no flight recorder, no PRNG draw): the
	// soak's own outputs stay byte-identical whether or not the dashboard is
	// on, so -dash never interferes with determinism comparisons.
	var dashObs *obs.Obs
	if p.Dash {
		dashObs = cl.EnableObs(obs.Options{SnapshotEvery: 100 * sim.Millisecond})
	}

	if p.FaultPlan != "" {
		pl, err := fault.Parse(p.FaultPlan)
		if err != nil {
			return fmt.Errorf("faultplan: %w", err)
		}
		pl.Apply(cl)
		fmt.Fprintf(w, "fault plan: %s\n", pl)
	}

	svc, err := migrate.NewService(cl)
	if err != nil {
		return fmt.Errorf("migration service: %w", err)
	}

	// Two endpoints per node, all meshed: 2*nodes endpoints against
	// 8 frames per NI — overcommitted on every node.
	var peers []*meshPeer
	var eps []*core.Endpoint
	for n := 0; n < nodes; n++ {
		for k := 0; k < 2; k++ {
			b := core.Attach(cl.Nodes[n])
			b.SetResolver(svc.Dir)
			ep, err := b.NewEndpoint(core.Key(5000+len(peers)), 2*nodes+4)
			if err != nil {
				return fmt.Errorf("endpoint: %w", err)
			}
			peers = append(peers, &meshPeer{id: len(peers), ep: ep, node: cl.Nodes[n]})
			eps = append(eps, ep)
		}
	}
	if err := core.MakeVirtualNetwork(eps); err != nil {
		return fmt.Errorf("mesh: %w", err)
	}

	stopAt := sim.Time(sim.Duration(p.Duration * float64(sim.Second)))
	quiesced := false
	for _, pr := range peers {
		pr.ep.SetHandler(hReq, func(p *sim.Proc, tok *core.Token, args [4]uint64, payload []byte) {
			pr.served++
			tok.Reply(p, hRep, args)
		})
		pr.ep.SetHandler(hRep, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
			pr.gotRep++
		})
		pr.ep.SetReturnHandler(func(p *sim.Proc, _ nic.NackReason, _, h int, _ [4]uint64, _ []byte) {
			if h == hReq {
				pr.retReq++
			} else {
				pr.retRep++
			}
		})
		// Handlers, counters, and translations travel with the image; the
		// swap retargets this peer's send/poll loop at the new handle.
		svc.Manage(pr.ep, func(n *core.Endpoint) { pr.ep = n })
		pr.node.Spawn(fmt.Sprintf("peer%d", pr.id), func(p *sim.Proc) {
			rng := pr.node.E.Rand()
			for p.Now() < stopAt {
				dst := rng.Intn(len(peers))
				if dst == pr.id {
					dst = (dst + 1) % len(peers)
				}
				var err error
				if rng.Intn(4) == 0 {
					err = pr.ep.RequestBulk(p, dst, hReq, make([]byte, 512+rng.Intn(7000)), [4]uint64{})
				} else {
					err = pr.ep.Request(p, dst, hReq, [4]uint64{})
				}
				if err == core.ErrMoved {
					// Our own endpoint is mid-migration; the Manage swap will
					// retarget pr.ep once it lands.
					p.Sleep(100 * sim.Microsecond)
					continue
				}
				if err != nil {
					fail.failf("peer %d request: %w", pr.id, err)
					return
				}
				pr.sent++
				pr.ep.Poll(p)
				p.Sleep(sim.Duration(rng.Intn(200)+20) * sim.Microsecond)
			}
			// Keep servicing the endpoint until the whole mesh quiesces.
			for !quiesced {
				if pr.ep.Poll(p) == 0 {
					p.Sleep(50 * sim.Microsecond)
				}
			}
		})
	}

	// Collective soak: an mpi world on the same nodes runs small allreduce
	// rounds back to back for the whole load window. Rounds use the Auto
	// selector, so this exercises the binomial tree under the same drops,
	// swaps, and crashes as the raw AM mesh. A fault-plan crash must abort
	// the survivors with ErrUnreachable — never hang them.
	var collW *mpi.World
	var collRounds int64
	var collAborts int64
	var collDone []bool
	if p.Coll {
		w, err := mpi.NewWorld(cl, nodes, nil)
		if err != nil {
			return fmt.Errorf("coll world: %w", err)
		}
		collW = w
		collDone = make([]bool, nodes)
		w.Launch(func(p *sim.Proc, cm *mpi.Comm) {
			defer func() { collDone[cm.Rank()] = true }()
			vec := make([]float64, 64)
			for i := 1; i < len(vec); i++ {
				vec[i] = float64(cm.Rank() + i)
			}
			for {
				// Termination must itself be a collective decision: ranks
				// checking the clock independently can disagree on whether
				// round k+1 happens and strand each other in Recv. Rank 0
				// decides, and the verdict rides in element 0 of the round's
				// own result, so every rank breaks after the same round.
				vec[0] = 0
				if cm.Rank() == 0 && p.Now() < stopAt {
					vec[0] = 1
				}
				out, err := cm.AllreduceAlg(p, vec, mpi.OpSum, coll.Auto)
				if err != nil {
					if errors.Is(err, mpi.ErrUnreachable) {
						collAborts++
						return
					}
					fail.failf("coll rank %d: %w", cm.Rank(), err)
					return
				}
				if out[0] == 0 {
					return
				}
				if cm.Rank() == 0 {
					collRounds++
				}
				p.Sleep(2 * sim.Millisecond)
			}
		})
	}

	// Churn: an extra endpoint per node is created, exercised, and freed in
	// a loop, forcing continual remapping against the static mesh.
	for n := 0; n < nodes; n++ {
		node := cl.Nodes[n]
		node.Spawn("churn", func(p *sim.Proc) {
			i := 0
			for p.Now() < stopAt {
				b := core.Attach(node)
				ep, err := b.NewEndpoint(core.Key(9000+int(node.ID)*100+i%50), 4)
				if err != nil {
					fail.failf("churn endpoint: %w", err)
					return
				}
				// Touch it so it faults resident, then free it.
				ep.SetEventMask(true)
				ep.Bundle().WaitTimeout(p, sim.Duration(200+i%300)*sim.Microsecond)
				b.Close(p)
				i++
				p.Sleep(500 * sim.Microsecond)
			}
		})
	}

	// Migration churn: live-move peer endpoints round-robin onto random
	// other nodes while the traffic runs. Every peer keeps sending and
	// serving across its own relocations.
	moves := 0
	// The operator's thread belongs to no workstation: no crash kills it.
	cl.ShardEngine(0).Spawn("migrator", func(p *sim.Proc) {
		rng := p.Engine().Rand()
		for i := 0; p.Now() < stopAt; i++ {
			p.Sleep(40 * sim.Millisecond)
			cur := peers[i%len(peers)].ep
			if cur.Moved() || cur.Bundle().Node.Crashed() {
				continue
			}
			dst := netsim.NodeID(rng.Intn(nodes))
			if dst == cur.Bundle().Node.ID {
				dst = netsim.NodeID((int(dst) + 1) % nodes)
			}
			if cl.Nodes[dst].Crashed() {
				continue
			}
			if _, err := svc.Move(p, cur, dst); err != nil {
				// A fault-plan crash can land on either end mid-move;
				// skipping the move is the correct planned-movement
				// response to an unplanned failure.
				if errors.Is(err, migrate.ErrDestUnreachable) || errors.Is(err, hostos.ErrCrashed) {
					continue
				}
				fail.failf("migrate peer %d: %w", i%len(peers), err)
				return
			}
			moves++
		}
	})

	// Periodic spine hot-swap: every 120 ms the next spine is out for the
	// last 20 ms, as a fault plan so that every fabric replica sees it.
	var swaps fault.Plan
	for s, t := 0, sim.Duration(0); sim.Time(t) < stopAt; s, t = s+1, t+120*sim.Millisecond {
		swaps.Events = append(swaps.Events, fault.Event{
			Kind: fault.SpineDown, A: s % 5, At: t + 100*sim.Millisecond, Dur: 20 * sim.Millisecond,
		})
	}
	swaps.Apply(cl)

	// A crashed workstation loses whatever sat in its bounded NI state at the
	// instant of failure — queued sends, per-channel frames in flight, and
	// delivered-but-unserved receives (§3.2 bounds all three). Each peer on
	// an ever-crashed node therefore earns a fixed loss allowance; everything
	// beyond it is still an invariant violation. Zero crashes → zero
	// allowance → checks identical to the fault-free run.
	deadPeer := func(pr *meshPeer) bool {
		return pr.node.Crashed() || pr.node.NIC.C.Get("nic.restart") > 0
	}
	deadPeers := func() (n int64) {
		for _, pr := range peers {
			if deadPeer(pr) {
				n++
			}
		}
		return n
	}
	allowance := func() int64 {
		return deadPeers() * int64(nic.SendQDepth*2+cfg.NIC.Channels*2+cfg.NIC.RecvQDepth*2)
	}

	// Drive to completion: every request must be served or returned, and
	// every reply delivered or returned (no deadlock, no loss).
	limit := stopAt.Add(200 * sim.Second)
	type meshTotals struct{ sent, rep, served, retReq, retRep int64 }
	totals := func() (t meshTotals) {
		for _, pr := range peers {
			t.sent += pr.sent
			t.rep += pr.gotRep
			t.served += pr.served
			t.retReq += pr.retReq
			t.retRep += pr.retRep
		}
		return t
	}
	accounted := func() bool {
		t, allow := totals(), allowance()
		if t.served+t.retReq+allow < t.sent || t.rep+t.retRep+allow < t.served {
			return false
		}
		// Credits settle only when every deposited reply and return has been
		// dispatched; a delivered-but-returned message can satisfy the sums
		// above while its twin still sits in a queue.
		for _, pr := range peers {
			if deadPeer(pr) {
				continue
			}
			if pr.ep.Segment().EP.PendingRecvs() > 0 {
				return false
			}
		}
		return true
	}
	// With a crash in the plan, the allowance makes the sums tolerant — they
	// can pass while live messages are merely late (a return bound for a
	// crashed node takes up to ReturnToSenderAfter, and a requester blocked
	// on the last credit can chain another send behind it). So the break
	// additionally requires the totals to have been static for longer than
	// the longest silent in-flight gap. Without crashes the sums are exact
	// and the break is immediate, as before.
	settle := cfg.NIC.ReturnToSenderAfter + 200*sim.Millisecond
	lastSig, lastChange, lastDash := totals(), cl.Now(), cl.Now()
	cl.RunUntilDone(10*sim.Millisecond, limit, func() bool {
		now := cl.Now()
		if dashObs != nil && now.Sub(lastDash) >= 100*sim.Millisecond {
			fmt.Fprint(w, dashObs.R.Dashboard())
			lastDash = now
		}
		if sig := totals(); sig != lastSig {
			lastSig, lastChange = sig, now
		}
		if fail.err != nil {
			return true
		}
		return now >= stopAt && accounted() && (allowance() == 0 || now.Sub(lastChange) >= settle)
	})
	if fail.err != nil {
		return fail.err
	}
	quiesced = true
	cl.RunFor(50 * sim.Millisecond) // let peer procs observe and exit

	// ---- Invariant checks ----
	t := totals()
	fmt.Fprintf(w, "traffic: %d requests, %d served, %d replies, %d req-returns, %d rep-returns\n",
		t.sent, t.served, t.rep, t.retReq, t.retRep)
	allow := allowance()
	if dead := deadPeers(); dead > 0 {
		fmt.Fprintf(w, "crashed: %d peer endpoint(s) lost to node crashes; loss allowance %d messages\n",
			dead, allow)
	}

	// Every request must be served or returned — nothing may be lost beyond
	// the crash allowance. The converse overlap (served AND returned) is the
	// paper's "barring unrecoverable transport conditions" escape hatch: if
	// every ack of a delivered message is lost for the full unreachability
	// bound, the transport returns it anyway (two-generals ambiguity). That
	// must be vanishingly rare.
	if t.served+t.retReq+allow < t.sent {
		return fmt.Errorf("INVARIANT VIOLATION: served %d + returned %d + allowance %d < sent %d (lost requests)",
			t.served, t.retReq, allow, t.sent)
	}
	ambiguousReq := t.served + t.retReq - t.sent
	if ambiguousReq < 0 {
		ambiguousReq = 0 // crash losses, inside the allowance just checked
	}
	if t.rep+t.retRep+allow < t.served {
		return fmt.Errorf("INVARIANT VIOLATION: replies %d + returned replies %d + allowance %d < served %d (lost replies)",
			t.rep, t.retRep, allow, t.served)
	}
	ambiguousRep := t.rep + t.retRep - t.served
	if ambiguousRep < 0 {
		ambiguousRep = 0
	}
	if ambiguous := ambiguousReq + ambiguousRep; ambiguous > 0 {
		if float64(ambiguous) > 0.001*float64(t.sent)+float64(allow) {
			return fmt.Errorf("INVARIANT VIOLATION: %d delivered-but-returned messages (%.4f%% of traffic)",
				ambiguous, 100*float64(ambiguous)/float64(t.sent))
		}
		fmt.Fprintf(w, "note: %d delivered-but-returned messages (unrecoverable-condition ambiguity, %.5f%%)\n",
			ambiguous, 100*float64(ambiguous)/float64(t.sent))
	}
	// Credit conservation: each request restores its credit via the reply
	// or via its own return. The one leak the AM-II credit scheme allows is
	// a *returned reply* (the requester never hears back), so the global
	// deficit must equal the count of returned replies exactly. Crashed
	// endpoints are out of the scan: their segments are gone, and live
	// translations toward them legitimately hold un-restored credits inside
	// the allowance.
	window := cfg.NIC.RecvQDepth
	deficit := int64(0)
	for _, pr := range peers {
		if deadPeer(pr) {
			continue
		}
		for i := 0; i < 2*nodes; i++ {
			if !pr.ep.TranslationValid(i) {
				continue
			}
			deficit += int64(window - pr.ep.Credits(i))
		}
	}
	// A delivered-but-returned request restores its credit twice, and a
	// delivered-but-returned reply restores a credit its return did not,
	// so each ambiguous message lowers the deficit by one.
	want := t.retRep - ambiguousReq - ambiguousRep
	diff := deficit - want
	if diff < 0 {
		diff = -diff
	}
	if diff > ambiguousReq+ambiguousRep+allow {
		return fmt.Errorf("INVARIANT VIOLATION: credit deficit %d, expected %d (+-%d ambiguity/allowance)",
			deficit, want, ambiguousReq+ambiguousRep+allow)
	}
	fmt.Fprintln(w, "invariants hold: exactly-once accounting, credit conservation, liveness")

	remaps := int64(0)
	for _, n := range cl.Nodes {
		remaps += n.Driver.Remaps()
	}
	var redirects, refreshes int64
	for _, pr := range peers {
		redirects += pr.ep.Stats.Redirects
		refreshes += pr.ep.Stats.Refreshes
	}
	fmt.Fprintf(w, "migrations: %d live moves; %d redirects absorbed, %d translation refreshes\n",
		moves, redirects, refreshes)
	if collW != nil {
		// No-hang invariant: give any in-flight round bounded time to land,
		// then every rank must have exited — completed or aborted — unless
		// its own node crashed (its proc dies with the node).
		hung := func() int {
			for r := 0; r < nodes; r++ {
				if !collDone[r] && !cl.Nodes[r].Crashed() {
					return r
				}
			}
			return -1
		}
		cl.RunUntilDone(sim.Millisecond, cl.Now().Add(5*sim.Second), func() bool { return hung() < 0 })
		if r := hung(); r >= 0 {
			return fmt.Errorf("INVARIANT VIOLATION: coll rank %d hung in allreduce", r)
		}
		fmt.Fprintf(w, "collectives: %d allreduce rounds, %d fault aborts, dead ranks %v\n",
			collRounds, collAborts, collW.DeadRanks())
	}
	fmt.Fprintf(w, "endpoint remaps across cluster: %d; final sim time %v\n",
		remaps, sim.Duration(cl.Now()))
	return nil
}
