package bench

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"sync"

	"virtnet/internal/core"
	"virtnet/internal/fault"
	"virtnet/internal/gam"
	"virtnet/internal/hostos"
	"virtnet/internal/logp"
	"virtnet/internal/migrate"
	"virtnet/internal/netsim"
	"virtnet/internal/nic"
	"virtnet/internal/obs"
	"virtnet/internal/rpc"
	"virtnet/internal/sim"
)

// This file holds what the rows share: the harness pieces and the soak
// invariants, each written once as a plain function.

// amPair builds a dedicated two-node virtual network on a cluster of cfg for
// microbenchmarks: its engine, the two stations, and what shuts it down.
func amPair(seed int64, cfg hostos.ClusterConfig) (e *sim.Engine, client, server logp.Station, shutdown func()) {
	c := hostos.NewCluster(seed, 2, cfg)
	b0 := core.Attach(c.Nodes[0])
	b1 := core.Attach(c.Nodes[1])
	e0, _ := b0.NewEndpoint(1, 4)
	e1, _ := b1.NewEndpoint(2, 4)
	e0.Map(0, e1.Name(), 2)
	e1.Map(0, e0.Name(), 1)
	return c.ShardEngine(0), logp.AMStation{EP: e0, Idx: 0}, logp.AMStation{EP: e1, Idx: 0}, c.Shutdown
}

// gamPair builds the same two stations on the GAM baseline.
func gamPair(seed int64) (e *sim.Engine, client, server logp.Station, shutdown func()) {
	e = sim.NewEngine(seed)
	w := gam.New(e, netsim.New(e, netsim.DefaultConfig(), 2))
	return e, logp.GAMStation{N: w.Node(0), Dst: 1}, logp.GAMStation{N: w.Node(1), Dst: 0}, func() {
		w.Stop()
		e.Shutdown()
	}
}

// writeTrace creates the -traceout file and has export fill it.
func writeTrace(path string, export func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("traceout: %w", err)
	}
	if err := export(f); err != nil {
		f.Close()
		return fmt.Errorf("traceout: %w", err)
	}
	return f.Close()
}

// threeLevelFatTree reshapes cfg's fabric for the big clusters: 8 hosts per
// leaf, 4 pod spines, 16 leaves per pod, 8 cores — leaf-aligned with engine
// sharding.
func threeLevelFatTree(cfg *hostos.ClusterConfig) {
	cfg.Net.HostsPerLeaf = 8
	cfg.Net.Spines = 4
	cfg.Net.LeavesPerPod = 16
	cfg.Net.Cores = 8
}

// failure holds the first error raised inside simulated procs. On a sharded
// cluster procs of different shards run concurrently, and a panic in one
// stops every shard mid-run (RunUntil re-panics it as the shard's) — so a
// proc that finds a violation records it here and returns. The row reads err
// between steps (RunUntilDone's done func), while the engines are parked,
// and returns it.
type failure struct {
	once sync.Once
	err  error
}

func (f *failure) failf(format string, args ...any) {
	f.once.Do(func() { f.err = fmt.Errorf(format, args...) })
}

// echoPair is one client/server pair of the pair-stream harness.
type echoPair struct {
	srv, cli    int   // host indices
	served, got int64 // requests the server handled, replies the client saw
	done        bool
	doneAt      sim.Time
}

// spawnEchoPairs puts n echo pairs on cl — pair i's server and client on the
// hosts place(i) names — and starts their procs: each client streams msgs
// small requests as fast as its credit window allows, polls until every
// reply is back, and marks its pair done. Drive it with
// cl.RunUntilDone(…, echoPairsDone(pairs)).
func spawnEchoPairs(cl *hostos.Cluster, n, msgs int, place func(i int) (srv, cli int)) ([]*echoPair, error) {
	pairs := make([]*echoPair, n)
	for i := range pairs {
		ps := &echoPair{}
		ps.srv, ps.cli = place(i)
		pairs[i] = ps
		srvNode, cliNode := cl.Nodes[ps.srv], cl.Nodes[ps.cli]
		sep, err := core.Attach(srvNode).NewEndpoint(core.Key(100+i), 8)
		if err != nil {
			return nil, fmt.Errorf("echo pair %d server endpoint: %w", i, err)
		}
		cep, err := core.Attach(cliNode).NewEndpoint(core.Key(200+i), 8)
		if err != nil {
			return nil, fmt.Errorf("echo pair %d client endpoint: %w", i, err)
		}
		sep.Map(0, cep.Name(), core.Key(200+i))
		cep.Map(0, sep.Name(), core.Key(100+i))

		sep.SetHandler(hReq, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
			ps.served++
			tok.Reply(p, hRep, args)
		})
		cep.SetHandler(hRep, func(p *sim.Proc, tok *core.Token, _ [4]uint64, _ []byte) {
			ps.got++
		})
		srvNode.Spawn(fmt.Sprintf("echo-srv%d", i), func(p *sim.Proc) {
			for {
				if sep.Poll(p) == 0 {
					p.Sleep(sim.Microsecond)
				}
			}
		})
		cliNode.Spawn(fmt.Sprintf("echo-cli%d", i), func(p *sim.Proc) {
			for s := 0; s < msgs; s++ {
				if cep.Request(p, 0, hReq, [4]uint64{uint64(i), uint64(s)}) != nil {
					return
				}
				cep.Poll(p)
			}
			for ps.got < int64(msgs) {
				cep.Poll(p)
				p.Sleep(sim.Microsecond)
			}
			ps.done = true
			ps.doneAt = p.Now()
		})
	}
	return pairs, nil
}

func echoPairsDone(pairs []*echoPair) func() bool {
	return func() bool {
		for _, ps := range pairs {
			if !ps.done {
				return false
			}
		}
		return true
	}
}

// spawnEchoServer starts an echo server on node: an endpoint under key that
// answers hReq with hRep and counts the requests into *served, polled every
// 10 µs by a proc of its own. With manage, svc may live-migrate it, and the
// proc follows the endpoint to wherever it lands.
func spawnEchoServer(c *hostos.Cluster, svc *migrate.Service, manage bool, node int, key core.Key, served, bounced *int) (*core.Endpoint, error) {
	b := core.Attach(c.Nodes[node])
	b.SetResolver(svc.Dir)
	ep, err := b.NewEndpoint(key, 8)
	if err != nil {
		return nil, fmt.Errorf("echo server endpoint: %w", err)
	}
	ep.SetHandler(hReq, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
		*served++
		tok.Reply(p, hRep, args)
	})
	// A reply that bounces (e.g. its spine died before the ack) comes back
	// here; the server has no route back to the client beyond the reply
	// token, so recovery is the client's job (§3.2's end-to-end argument).
	// A non-nil bounced counts them: each must be healed by a client re-issue.
	if bounced != nil {
		ep.SetReturnHandler(func(p *sim.Proc, _ nic.NackReason, _, _ int, _ [4]uint64, _ []byte) {
			*bounced++
		})
	}
	cur := ep
	if manage {
		svc.Manage(ep, func(n *core.Endpoint) { cur = n })
	}
	c.Nodes[node].Spawn("echo-server", func(p *sim.Proc) {
		for {
			cur.Poll(p)
			p.Sleep(10 * sim.Microsecond)
		}
	})
	return ep, nil
}

// hungClient is the no-hang invariant: it returns the first client that has
// neither finished nor died with its node (client ci runs on node base+ci;
// crashed lists the nodes the fault plan crashes — they always restart, so
// Crashed() cannot tell afterwards), or -1.
func hungClient(done []bool, base int, crashed []int) int {
	for ci, d := range done {
		if !d && !slices.Contains(crashed, base+ci) {
			return ci
		}
	}
	return -1
}

// pollServe is a polling server thread: it takes calls off the wire and
// executes admitted ones until *stop, sleeping 5 µs when there is neither.
func pollServe(p *sim.Proc, srv *rpc.Server, stop *bool) {
	for !*stop {
		worked := srv.Poll(p) > 0
		if srv.Step(p) {
			worked = true
		}
		if !worked {
			p.Sleep(5 * sim.Microsecond)
		}
	}
}

// tally audits an exactly-once ledger (key → times seen): how many distinct
// keys it holds, and how many sightings were beyond the first.
func tally(ledger map[uint64]int) (keys, surplus int) {
	for _, n := range ledger {
		keys++
		if n > 1 {
			surplus += n - 1
		}
	}
	return keys, surplus
}

// serversDrained is the servers' half of the zero-leak invariant: every
// server's call and admission-queue bookkeeping is empty.
func serversDrained(servers []*rpc.Server) error {
	for si, s := range servers {
		if calls, reissues, queued, deferred := s.Outstanding(); calls+reissues+queued+deferred != 0 {
			return fmt.Errorf("INVARIANT VIOLATION: server %d leaked state: calls=%d reissues=%d queued=%d deferred=%d",
				si, calls, reissues, queued, deferred)
		}
	}
	return nil
}

// clientsDrained is the clients' half: the calls of every client that
// finished (the others died with their nodes) are all settled.
func clientsDrained[C interface{ Outstanding() (int, int, int) }](clients []C, finished []bool) error {
	for ci, c := range clients {
		if !finished[ci] {
			continue
		}
		if results, reissues, deferred := c.Outstanding(); results+reissues+deferred != 0 {
			return fmt.Errorf("INVARIANT VIOLATION: client %d leaked state: results=%d reissues=%d deferred=%d",
				ci, results, reissues, deferred)
		}
	}
	return nil
}

// poolLocality is the shard-arena invariant: every NI's free lists and every
// shard replica's packet arena hold only objects they allocated themselves,
// and every crossing record the replicas made is in a list, in flight, or
// was let go past a list's cap.
func poolLocality(cl *hostos.Cluster) error {
	var errs []error
	for _, n := range cl.Nodes {
		if err := n.NIC.VerifyPoolLocality(); err != nil {
			errs = append(errs, err)
		}
	}
	for s := 0; s < cl.Shards(); s++ {
		if err := cl.ShardNet(s).VerifyPoolLocality(); err != nil {
			errs = append(errs, err)
		}
	}
	if made, free, dropped, inFlight := cl.Fab.Crossings(); made-free-dropped != inFlight {
		errs = append(errs, fmt.Errorf("netsim: %d crossings made, %d free, %d let go, %d in flight", made, free, dropped, inFlight))
	}
	return errors.Join(errs...)
}

// stageSums is the trace-integrity invariant: the per-stage durations of
// each flight sum exactly to its end-to-end total.
func stageSums(flights []*obs.Flight) error {
	for _, f := range flights {
		var sum sim.Duration
		for _, d := range f.StageTotals() {
			sum += d
		}
		if sum != f.Total() {
			return fmt.Errorf("INVARIANT VIOLATION: flight %d/%d kind=%v stage sum %v != total %v",
				f.TraceID, f.Span, f.Kind, sum, f.Total())
		}
	}
	return nil
}

// applyChaosPlan draws a seeded random fault schedule — link and switch
// outages, loss bursts, crashes that restart — sized to cl's fabric, and
// applies it. Nodes below noCrashBelow (the tier holding a run's invariant
// state) are never crashed.
func applyChaosPlan(cl *hostos.Cluster, rng *rand.Rand, events int, horizon, maxOutage sim.Duration, noCrashBelow int) *fault.Plan {
	plan := fault.RandomPlan(rng, fault.ChaosConfig{
		Events:       events,
		Horizon:      horizon,
		MaxOutage:    maxOutage,
		Nodes:        len(cl.Nodes),
		Leaves:       cl.ShardNet(0).Leaves(),
		Spines:       cl.ShardNet(0).TotalSpines(),
		NoCrashBelow: noCrashBelow,
	})
	plan.Apply(cl)
	return plan
}
