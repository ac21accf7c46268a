// Command vnstress soak-tests the virtual network stack under adversarial
// conditions: random request/reply traffic across a random endpoint mesh,
// packet loss, endpoint churn (create/free while traffic flows), periodic
// spine hot-swaps, live endpoint migration churn, and overcommitted NI
// frames. It verifies the system's core invariants at the end:
//
//   - exactly-once delivery for every request that was not returned,
//   - credit conservation (windows return to full once quiescent),
//   - no leaked endpoint frames,
//   - the cluster remains live (no deadlock) throughout.
//
// With -migrate (on by default) a migrator live-moves the peer endpoints
// round-robin between nodes while the traffic runs, so every invariant must
// also hold across repeated relocations under loss and frame overcommit.
//
// With -faultplan a scripted fault schedule (internal/fault syntax, e.g.
// "link:3-7@0.2s+0.5s,crash:node9@1s") runs against the mesh; crashed nodes
// are allowed to lose their bounded in-flight window, and the invariants are
// re-checked with exactly that allowance — anything beyond it is still a
// violation.
//
// With -coll an mpi world rides on the same cluster running continuous
// small-vector allreduce rounds, so the collective engine's tag matching and
// fault-abort path soak under the same loss, churn, and crash schedule as
// the raw AM traffic. The invariant is no-hang: every rank either completes
// its rounds or (when the plan crashes a node) surfaces ErrUnreachable.
//
// With -dash the unified metrics registry prints a dashboard of every
// layer's counters and gauges each 100 ms of simulated time (deltas against
// the previous snapshot included). The dashboard is observability-only: it
// never perturbs the simulation, so outputs with and without it agree.
//
// Usage: vnstress [-seed N] [-nodes N] [-duration D-sim-seconds] [-drop P]
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the soak run
// for engine performance work.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

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

var (
	seed       = flag.Int64("seed", 1, "simulation seed")
	nodes      = flag.Int("nodes", 12, "cluster size")
	duration   = flag.Float64("duration", 2.0, "simulated seconds of load")
	drop       = flag.Float64("drop", 0.02, "packet loss probability")
	churn      = flag.Bool("churn", true, "create/free endpoints during the run")
	swap       = flag.Bool("swap", true, "hot-swap a spine switch during the run")
	migr       = flag.Bool("migrate", true, "live-migrate peer endpoints during the run")
	faultplan  = flag.String("faultplan", "", "scripted fault schedule (internal/fault syntax), e.g. link:3-7@0.2s+0.5s,crash:node9@1s")
	collOn     = flag.Bool("coll", false, "soak the collective engine with continuous allreduce rounds")
	chaos      = flag.Bool("chaos", false, "run the chaos soak: random fault schedule + idempotent RPC population with exactly-once/leak/trace invariants")
	serveSoak  = flag.Bool("serve", false, "run the serving soak: open-loop KV clients at 1.3x capacity + fault churn with exactly-once/no-hang/zero-leak invariants")
	dash       = flag.Bool("dash", false, "print the unified metrics dashboard every 100 ms of simulated time")
	shardsoak  = flag.Bool("shardsoak", false, "run the sharded-engine soak: mixed local/cross-shard traffic + node-scoped fault churn on a sharded cluster")
	shards     = flag.Int("shards", 2, "engine shards for -shardsoak and -serve (1 = one shard, no barriers; -serve defaults to 1 when unset)")
	cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
)

const (
	hReq = 1
	hRep = 2
)

type peer struct {
	id     int
	ep     *core.Endpoint // current live handle; swapped on migration
	epID   int
	node   *hostos.Node
	sent   int64
	gotRep int64
	served int64
	// retReq counts this peer's requests returned undeliverable; retRep
	// counts replies it issued that came back.
	retReq int64
	retRep int64
}

func main() {
	flag.Parse()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}
	if *shardsoak {
		runShardSoak()
		return
	}
	if *chaos {
		runChaos()
		return
	}
	if *serveSoak {
		runServeSoak()
		return
	}
	cfg := hostos.DefaultClusterConfig()
	cfg.Net.DropProb = *drop
	cfg.NIC.Frames = 8
	cl := hostos.NewCluster(*seed, *nodes, cfg)
	defer cl.Shutdown()

	// Metrics-only observability (no flight recorder, no PRNG draw): the
	// soak's own outputs stay byte-identical whether or not the dashboard is
	// on, so -dash never interferes with determinism comparisons.
	var dashObs *obs.Obs
	if *dash {
		dashObs = cl.EnableObs(obs.Options{SnapshotEvery: 100 * sim.Millisecond})
	}

	if *faultplan != "" {
		pl, err := fault.Parse(*faultplan)
		if err != nil {
			fatal("faultplan: %v", err)
		}
		pl.Apply(cl)
		fmt.Printf("fault plan: %s\n", pl)
	}

	var svc *migrate.Service
	if *migr {
		var err error
		if svc, err = migrate.NewService(cl); err != nil {
			fatal("migration service: %v", err)
		}
	}

	// Two endpoints per node, all meshed: 2*nodes endpoints against
	// 8 frames per NI — overcommitted on every node.
	var peers []*peer
	var eps []*core.Endpoint
	for n := 0; n < *nodes; n++ {
		for k := 0; k < 2; k++ {
			b := core.Attach(cl.Nodes[n])
			if svc != nil {
				b.SetResolver(svc.Dir)
			}
			ep, err := b.NewEndpoint(core.Key(5000+len(peers)), 2**nodes+4)
			if err != nil {
				fatal("endpoint: %v", err)
			}
			peers = append(peers, &peer{id: len(peers), ep: ep, epID: ep.Segment().EP.ID, node: cl.Nodes[n]})
			eps = append(eps, ep)
		}
	}
	if err := core.MakeVirtualNetwork(eps); err != nil {
		fatal("mesh: %v", err)
	}

	stopAt := sim.Time(sim.Duration(*duration * float64(sim.Second)))
	quiesced := false
	for _, pr := range peers {
		pr := pr
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
		if svc != nil {
			// Handlers, counters, and translations travel with the image; the
			// swap retargets this peer's send/poll loop at the new handle.
			svc.Manage(pr.ep, func(n *core.Endpoint) { pr.ep = n })
		}
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
					fatal("peer %d request: %v", pr.id, err)
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
	if *collOn {
		w, err := mpi.NewWorld(cl, *nodes, nil)
		if err != nil {
			fatal("coll world: %v", err)
		}
		collW = w
		collDone = make([]bool, *nodes)
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
					fatal("coll rank %d: %v", cm.Rank(), err)
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
	if *churn {
		for n := 0; n < *nodes; n++ {
			node := cl.Nodes[n]
			node.Spawn("churn", func(p *sim.Proc) {
				i := 0
				for p.Now() < stopAt {
					b := core.Attach(node)
					ep, err := b.NewEndpoint(core.Key(9000+int(node.ID)*100+i%50), 4)
					if err != nil {
						fatal("churn endpoint: %v", err)
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
	}

	// Migration churn: live-move peer endpoints round-robin onto random
	// other nodes while the traffic runs. Every peer keeps sending and
	// serving across its own relocations.
	moves := 0
	if svc != nil {
		cl.E.Spawn("migrator", func(p *sim.Proc) {
			rng := cl.E.Rand()
			for i := 0; p.Now() < stopAt; i++ {
				p.Sleep(40 * sim.Millisecond)
				cur := peers[i%len(peers)].ep
				if cur.Moved() || cur.Bundle().Node.Crashed() {
					continue
				}
				dst := netsim.NodeID(rng.Intn(*nodes))
				if dst == cur.Bundle().Node.ID {
					dst = netsim.NodeID((int(dst) + 1) % *nodes)
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
					fatal("migrate peer %d: %v", i%len(peers), err)
				}
				moves++
			}
		})
	}

	// Periodic spine hot-swap.
	if *swap {
		cl.E.Spawn("swapper", func(p *sim.Proc) {
			s := 0
			for p.Now() < stopAt {
				p.Sleep(100 * sim.Millisecond)
				cl.Net.SetSpineDown(s%5, true)
				p.Sleep(20 * sim.Millisecond)
				cl.Net.SetSpineDown(s%5, false)
				s++
			}
		})
	}

	// A crashed workstation loses whatever sat in its bounded NI state at the
	// instant of failure — queued sends, per-channel frames in flight, and
	// delivered-but-unserved receives (§3.2 bounds all three). Each peer on
	// an ever-crashed node therefore earns a fixed loss allowance; everything
	// beyond it is still an invariant violation. Zero crashes → zero
	// allowance → checks identical to the fault-free run.
	deadPeer := func(pr *peer) bool {
		return pr.node.Crashed() || pr.node.NIC.C.Get("nic.restart") > 0
	}
	allowance := func() int64 {
		perPeer := int64(cfg.NIC.SendQDepth*2 + cfg.NIC.Channels*2 + cfg.NIC.RecvQDepth*2)
		var a int64
		for _, pr := range peers {
			if deadPeer(pr) {
				a += perPeer
			}
		}
		return a
	}

	// Drive to completion: every request must be served or returned, and
	// every reply delivered or returned (no deadlock, no loss).
	limit := stopAt.Add(200 * sim.Second)
	accounted := func() bool {
		var sent, rep, served, rq, rp int64
		for _, pr := range peers {
			sent += pr.sent
			rep += pr.gotRep
			served += pr.served
			rq += pr.retReq
			rp += pr.retRep
		}
		allow := allowance()
		if served+rq+allow < sent || rep+rp+allow < served {
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
	signature := func() [5]int64 {
		var s [5]int64
		for _, pr := range peers {
			s[0] += pr.sent
			s[1] += pr.gotRep
			s[2] += pr.served
			s[3] += pr.retReq
			s[4] += pr.retRep
		}
		return s
	}
	lastSig := signature()
	lastChange := cl.E.Now()
	lastDash := cl.E.Now()
	for cl.E.Now() < limit {
		cl.E.RunFor(10 * sim.Millisecond)
		if dashObs != nil && cl.E.Now().Sub(lastDash) >= 100*sim.Millisecond {
			fmt.Print(dashObs.R.Dashboard())
			lastDash = cl.E.Now()
		}
		if sig := signature(); sig != lastSig {
			lastSig, lastChange = sig, cl.E.Now()
		}
		if cl.E.Now() >= stopAt && accounted() {
			if allowance() == 0 || cl.E.Now().Sub(lastChange) >= settle {
				break
			}
		}
	}
	quiesced = true
	cl.E.RunFor(50 * sim.Millisecond) // let peer procs observe and exit

	// ---- Invariant checks ----
	var totSent, totRep, totServed, totRetReq, totRetRep int64
	for _, pr := range peers {
		totSent += pr.sent
		totRep += pr.gotRep
		totServed += pr.served
		totRetReq += pr.retReq
		totRetRep += pr.retRep
	}
	fmt.Printf("traffic: %d requests, %d served, %d replies, %d req-returns, %d rep-returns\n",
		totSent, totServed, totRep, totRetReq, totRetRep)
	allow := allowance()
	deadPeers := 0
	for _, pr := range peers {
		if deadPeer(pr) {
			deadPeers++
		}
	}
	if deadPeers > 0 {
		fmt.Printf("crashed: %d peer endpoint(s) lost to node crashes; loss allowance %d messages\n",
			deadPeers, allow)
	}

	// Every request must be served or returned — nothing may be lost beyond
	// the crash allowance. The converse overlap (served AND returned) is the
	// paper's "barring unrecoverable transport conditions" escape hatch: if
	// every ack of a delivered message is lost for the full unreachability
	// bound, the transport returns it anyway (two-generals ambiguity). That
	// must be vanishingly rare.
	if totServed+totRetReq+allow < totSent {
		fatal("INVARIANT VIOLATION: served %d + returned %d + allowance %d < sent %d (lost requests)",
			totServed, totRetReq, allow, totSent)
	}
	ambiguousReq := totServed + totRetReq - totSent
	if ambiguousReq < 0 {
		ambiguousReq = 0 // crash losses, inside the allowance just checked
	}
	if totRep+totRetRep+allow < totServed {
		fatal("INVARIANT VIOLATION: replies %d + returned replies %d + allowance %d < served %d (lost replies)",
			totRep, totRetRep, allow, totServed)
	}
	ambiguousRep := totRep + totRetRep - totServed
	if ambiguousRep < 0 {
		ambiguousRep = 0
	}
	if ambiguous := ambiguousReq + ambiguousRep; ambiguous > 0 {
		if float64(ambiguous) > 0.001*float64(totSent)+float64(allow) {
			fatal("INVARIANT VIOLATION: %d delivered-but-returned messages (%.4f%% of traffic)",
				ambiguous, 100*float64(ambiguous)/float64(totSent))
		}
		fmt.Printf("note: %d delivered-but-returned messages (unrecoverable-condition ambiguity, %.5f%%)\n",
			ambiguous, 100*float64(ambiguous)/float64(totSent))
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
		for i := 0; i < 2**nodes; i++ {
			if !pr.ep.TranslationValid(i) {
				continue
			}
			deficit += int64(window - pr.ep.Credits(i))
		}
	}
	// A delivered-but-returned request restores its credit twice, and a
	// delivered-but-returned reply restores a credit its return did not,
	// so each ambiguous message lowers the deficit by one.
	want := totRetRep - ambiguousReq - ambiguousRep
	diff := deficit - want
	if diff < 0 {
		diff = -diff
	}
	if diff > ambiguousReq+ambiguousRep+allow {
		fatal("INVARIANT VIOLATION: credit deficit %d, expected %d (+-%d ambiguity/allowance)",
			deficit, want, ambiguousReq+ambiguousRep+allow)
	}
	fmt.Println("invariants hold: exactly-once accounting, credit conservation, liveness")

	remaps := int64(0)
	for _, n := range cl.Nodes {
		remaps += n.Driver.Remaps()
	}
	if svc != nil {
		var redirects, refreshes int64
		for _, pr := range peers {
			redirects += pr.ep.Stats.Redirects
			refreshes += pr.ep.Stats.Refreshes
		}
		fmt.Printf("migrations: %d live moves; %d redirects absorbed, %d translation refreshes\n",
			moves, redirects, refreshes)
	}
	if collW != nil {
		// No-hang invariant: give any in-flight round bounded time to land,
		// then every rank must have exited — completed or aborted — unless
		// its own node crashed (its proc dies with the node).
		for i := 0; i < 5000; i++ {
			alive := 0
			for r := 0; r < *nodes; r++ {
				if !collDone[r] && !cl.Nodes[r].Crashed() {
					alive++
				}
			}
			if alive == 0 {
				break
			}
			cl.E.RunFor(sim.Millisecond)
		}
		for r := 0; r < *nodes; r++ {
			if !collDone[r] && !cl.Nodes[r].Crashed() {
				fatal("INVARIANT VIOLATION: coll rank %d hung in allreduce", r)
			}
		}
		fmt.Printf("collectives: %d allreduce rounds, %d fault aborts, dead ranks %v\n",
			collRounds, collAborts, collW.DeadRanks())
	}
	fmt.Printf("endpoint remaps across cluster: %d; final sim time %v\n",
		remaps, sim.Duration(cl.E.Now()))
}

func fatal(f string, args ...any) {
	fmt.Fprintf(os.Stderr, "vnstress: "+f+"\n", args...)
	os.Exit(1)
}

// flagSet reports whether the named flag was set explicitly.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(fl *flag.Flag) {
		if fl.Name == name {
			set = true
		}
	})
	return set
}
