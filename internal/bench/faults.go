package bench

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"virtnet/internal/container"
	"virtnet/internal/core"
	"virtnet/internal/fault"
	"virtnet/internal/glunix"
	"virtnet/internal/hostos"
	"virtnet/internal/migrate"
	"virtnet/internal/netsim"
	"virtnet/internal/nic"
	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

// faultsRow is the cluster-wide fault-injection and automated-recovery
// experiment (DESIGN.md S21): 16 clients stream small requests at two server
// replicas on a 20-node cluster while a scripted fault plan runs — a spine
// switch goes dark and is repaired, then a whole node (hosting one replica
// and a gang-job rank) crashes. The GLUnix health monitor declares the node
// dead from missed heartbeats, requeues its batch job, drops its name-service
// bindings, and a registered recovery hook respawns the lost replica on a
// spare node; clients re-bind and re-issue. A live migration of the surviving
// replica runs mid-stream to show planned movement composing with failure
// recovery. Reported: per-window aggregate throughput (the dip-and-recover
// curve), recovery ratio vs the pre-fault baseline, and exactly-once
// accounting — zero lost, zero duplicated user-level messages.
func faultsRow(w io.Writer, p Params) error {
	header(w, "fault injection and automated recovery — dip and recover")
	const (
		nodes    = 20
		keyA     = core.Key(77)
		keyB     = core.Key(78)
		homeNode = 0  // glunix runs the health-monitor master here (outside the fault domain)
		nodeA    = 3  // replica A: survives, live-migrates mid-run
		nodeB    = 14 // replica B: crashes with its node
		spareN   = 17 // recovery hook respawns replica B here
		moveDst  = 5  // replica A migrates here at 650 ms
		window   = 20 * sim.Millisecond
		sendGap  = 250 * sim.Microsecond
		maxOut   = 8 // per-client outstanding-request cap
		// A request whose reply bounced back to the server leaves no trace
		// at the client: no return, no reply. The transport gives up within
		// ~ReturnToSenderAfter (200 ms), so a serial still unanswered this
		// long after its send can never be answered by the original
		// exchange and is safe to re-issue without risking a duplicate.
		reissueAfter = 500 * sim.Millisecond
		// Spine 0 carries nearly all steady-state inter-leaf traffic (each
		// stop-and-wait flow rides its lowest channel, and channel index
		// selects the route), so failing it forces the §5.1 rebind onto
		// other spines.
		plan = "spine:0@200ms+150ms,crash:node14@500ms"
	)
	sendUntil := sim.Time(0).Add(1 * sim.Second)
	clientNodes := []int{1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 18, 19}

	c := hostos.NewCluster(p.Seed, nodes, hostos.DefaultClusterConfig())
	defer c.Shutdown()
	var fail failure
	sched := glunix.NewScheduler(c)
	svc, err := migrate.NewService(c)
	if err != nil {
		return fmt.Errorf("migration service: %w", err)
	}
	mon, err := glunix.NewMonitor(c, sched, svc.Dir)
	if err != nil {
		return fmt.Errorf("health monitor: %w", err)
	}

	// Replica servers: an echo service with two replicas. Clients pin to one
	// replica; the published registry tells them where their replica lives
	// and bumps a generation when recovery moves it.
	type replicaInfo struct {
		name core.EndpointName
		key  core.Key
		gen  int
	}
	registry := make([]replicaInfo, 2)
	served := make([]int, 3) // A, B, B-replacement
	lostReplies := 0         // server replies returned by the fabric

	startReplica := func(node int, key core.Key, slot int, servedIdx int, manage bool) (*core.Endpoint, error) {
		ep, err := spawnEchoServer(c, svc, manage, node, key, &served[servedIdx], &lostReplies)
		if err != nil {
			return nil, err
		}
		registry[slot] = replicaInfo{name: ep.Name(), key: key, gen: registry[slot].gen + 1}
		return ep, nil
	}
	repA, errA := startReplica(nodeA, keyA, 0, 0, true)
	repB, errB := startReplica(nodeB, keyB, 1, 1, false)
	if err := errors.Join(errA, errB); err != nil {
		return err
	}
	epIDA := repA.Segment().EP.ID
	// Publish replica B in the name service so the monitor's DropNode has a
	// binding to withdraw when its node dies.
	svc.Dir.Publish(repB.Segment().EP.ID, netsim.NodeID(nodeB))

	// Recovery hook: when a node is declared dead, respawn the replica that
	// lived there on the spare node and bump the registry generation.
	mon.OnDead(func(p *sim.Proc, node int) {
		if node != nodeB {
			return
		}
		if _, err := startReplica(spareN, keyB, 1, 2, false); err != nil {
			fail.failf("recovery hook: %w", err)
			return
		}
		fmt.Fprintf(w, "t=%-7v recovery hook: replica B respawned on node %d (gen %d)\n",
			p.Now(), spareN, registry[1].gen)
	})

	// Clients: a fixed serial stream to their replica. Returned serials are
	// re-issued; a registry generation bump (replica respawned elsewhere)
	// re-binds the translation and sweeps every unanswered serial into the
	// retry queue — covering messages the dead node had accepted but not yet
	// served, which are bounded by the outstanding window and can never be
	// answered by anyone else (the transport's end-to-end dedup makes the
	// sweep duplicate-free).
	tl := obs.NewTimeline(0, window)
	type fclient struct {
		idx                        int
		replica                    int
		ep                         *core.Endpoint
		gen                        int
		next                       uint64
		replies                    map[uint64]int
		pending                    map[uint64]sim.Time // unanswered serials and their last send time
		retry                      container.Deque[uint64]
		inRetry                    map[uint64]bool
		answered, returns, resends int
		done                       bool
	}
	clients := make([]*fclient, len(clientNodes))
	for i, node := range clientNodes {
		cs := &fclient{idx: i, replica: i % 2, next: 1,
			replies: make(map[uint64]int), pending: make(map[uint64]sim.Time),
			inRetry: make(map[uint64]bool)}
		clients[i] = cs
		b := core.Attach(c.Nodes[node])
		b.SetResolver(svc.Dir)
		ep, err := b.NewEndpoint(core.Key(1000+node), 8)
		if err != nil {
			return fmt.Errorf("client endpoint: %w", err)
		}
		cs.ep = ep
		ep.SetHandler(hRep, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
			s := args[0]
			cs.replies[s]++
			delete(cs.pending, s)
			if cs.replies[s] == 1 {
				cs.answered++
				tl.Add(p.Now(), 1)
			}
		})
		ep.SetReturnHandler(func(p *sim.Proc, _ nic.NackReason, _, _ int, args [4]uint64, _ []byte) {
			s := args[0]
			cs.returns++
			if cs.replies[s] == 0 && !cs.inRetry[s] {
				cs.inRetry[s] = true
				cs.retry.Push(s)
			}
		})
		ri := registry[cs.replica]
		cs.gen = ri.gen
		if err := ep.Map(0, ri.name, ri.key); err != nil {
			return fmt.Errorf("client map: %w", err)
		}
		c.Nodes[node].Spawn("client", func(p *sim.Proc) {
			for {
				if ri := registry[cs.replica]; ri.gen != cs.gen {
					cs.gen = ri.gen
					cs.ep.Map(0, ri.name, ri.key)
					for s := uint64(1); s < cs.next; s++ {
						if cs.replies[s] == 0 && !cs.inRetry[s] {
							cs.inRetry[s] = true
							cs.retry.Push(s)
						}
					}
				}
				// End-to-end timeout: re-issue serials whose reply was lost at
				// the server side (no return ever reaches the client). Sorted
				// for per-seed determinism.
				var stale []uint64
				for s, at := range cs.pending {
					if p.Now().Sub(at) > reissueAfter && cs.replies[s] == 0 && !cs.inRetry[s] {
						stale = append(stale, s)
					}
				}
				sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
				for _, s := range stale {
					cs.inRetry[s] = true
					cs.retry.Push(s)
				}
				outstanding := int(cs.next-1) - cs.answered - cs.retry.Len()
				switch {
				case cs.retry.Len() > 0:
					s, _ := cs.retry.Pop()
					delete(cs.inRetry, s)
					if cs.replies[s] == 0 {
						cs.resends++
						cs.pending[s] = p.Now()
						cs.ep.Request(p, 0, hReq, [4]uint64{s, uint64(cs.idx)})
					}
				case p.Now() < sendUntil && outstanding < maxOut:
					s := cs.next
					cs.next++
					cs.pending[s] = p.Now()
					cs.ep.Request(p, 0, hReq, [4]uint64{s, uint64(cs.idx)})
				case p.Now() >= sendUntil && outstanding == 0:
					cs.done = true
					for {
						cs.ep.Poll(p)
						p.Sleep(sim.Millisecond)
					}
				}
				cs.ep.Poll(p)
				p.Sleep(sendGap)
			}
		})
	}

	// Batch layer: two waves of gang jobs covering every node; the rank on
	// the crashing node takes its job down, and the scheduler requeues it.
	submitWave := func() {
		for i := 0; i < 4; i++ {
			sched.Submit(5, func(p *sim.Proc, rank int, _ []*hostos.Node) {
				p.Sleep(300 * sim.Millisecond)
			})
		}
	}
	submitWave()
	c.Nodes[homeNode].E.AfterFunc(350*sim.Millisecond, submitWave)

	// Planned movement mid-recovery: replica A live-migrates while the
	// cluster is still absorbing the crash.
	var moveStats *migrate.MoveStats
	c.Nodes[homeNode].Spawn("mover", func(p *sim.Proc) {
		p.Sleep(650 * sim.Millisecond)
		h, ok := svc.Endpoint(epIDA)
		if !ok {
			return
		}
		s, err := svc.Move(p, h, netsim.NodeID(moveDst))
		if err != nil {
			fail.failf("move: %w", err)
			return
		}
		moveStats = s
	})

	// The scripted faults.
	pl, err := fault.Parse(plan)
	if err != nil {
		return fmt.Errorf("fault plan: %w", err)
	}
	pl.Apply(c)
	fmt.Fprintf(w, "plan: %s\n", pl)
	fmt.Fprintf(w, "%d clients x 2 replicas (A on node %d, B on node %d), monitor home node %d\n",
		len(clients), nodeA, nodeB, homeNode)

	c.RunUntilDone(50*sim.Millisecond, sim.Time(0).Add(8*sim.Second), func() bool {
		alldone := true
		for _, cs := range clients {
			alldone = alldone && cs.done
		}
		return alldone || fail.err != nil
	})
	if fail.err != nil {
		return fail.err
	}

	// Throughput series: replies per 20 ms window across all clients.
	series := tl.Series()
	if len(series) > 50 {
		series = series[:50] // the send phase; the drain tail is quiet
	}
	fmt.Fprintln(w, "replies per 20 ms window (faults at 200 ms and 500 ms):")
	for i := 0; i < len(series); i += 10 {
		end := i + 10
		if end > len(series) {
			end = len(series)
		}
		fmt.Fprintf(w, "  %4dms:", i*20)
		for _, v := range series[i:end] {
			fmt.Fprintf(w, " %5.0f", v)
		}
		fmt.Fprintln(w)
	}
	mean := func(lo, hi int) float64 {
		sum := 0.0
		for i := lo; i < hi && i < len(series); i++ {
			sum += series[i]
		}
		return sum / float64(hi-lo)
	}
	pre := mean(2, 10)   // 40–200 ms: steady state before the first fault
	post := mean(40, 50) // 800 ms–1 s: after repair, evacuation, migration
	ratio := 0.0
	if pre > 0 {
		ratio = post / pre
	}
	verdict := map[bool]string{true: "PASS", false: "FAIL"}
	recovered := ratio >= 0.9
	fmt.Fprintf(w, "throughput: pre-fault %.0f replies/window, post-recovery %.0f (%.0f%% — need >= 90%%): %s\n",
		pre, post, 100*ratio, verdict[recovered])

	// Exactly-once accounting.
	sent, answered, lost, dup, returns, resends := 0, 0, 0, 0, 0, 0
	for _, cs := range clients {
		keys, surplus := tally(cs.replies)
		sent += int(cs.next - 1)
		answered += keys
		lost += int(cs.next-1) - keys
		dup += surplus
		returns += cs.returns
		resends += cs.resends
	}
	once := lost == 0 && dup == 0
	fmt.Fprintf(w, "exactly-once: %d sent, %d answered — lost %d, duplicates %d (both must be 0): %s\n",
		sent, answered, lost, dup, verdict[once])
	fmt.Fprintf(w, "recovery path: %d returns absorbed, %d server replies bounced, %d re-issues, served A/B/B' = %d/%d/%d\n",
		returns, lostReplies, resends, served[0], served[1], served[2])
	fmt.Fprintf(w, "monitor: %d death(s) declared, %d heartbeats; scheduler: %d jobs done, %d requeued\n",
		mon.Deaths, mon.Beats, sched.Completed, sched.Requeued)
	fmt.Fprintf(w, "name service: %d binding(s) dropped for the dead node\n",
		svc.Dir.C.Get("dir.drop_node"))
	if moveStats != nil {
		fmt.Fprintf(w, "live migration under recovery load: %d -> %d, blackout %v, %d bytes\n",
			nodeA, moveDst, moveStats.Blackout, moveStats.Bytes)
	}
	// Per-link loss attribution for the faulted elements, from the
	// structured per-link counters.
	fmt.Fprintf(w, "lossy links:\n")
	for _, line := range strings.Split(netsim.RenderLinkCounters(c.Fab.PerLinkCounters(), true), "\n") {
		if line != "" {
			fmt.Fprintf(w, "  %s\n", line)
		}
	}
	if !recovered || !once {
		return errors.New("recovery or exactly-once verdict is FAIL")
	}
	return nil
}
