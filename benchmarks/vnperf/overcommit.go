package main

import (
	"fmt"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/nic"
	"virtnet/internal/sim"
)

// ocClient is one client of the overcommitted server, with its ledger.
type ocClient struct {
	pollCount
	seen    []uint8 // replies per request sequence number; none may exceed 1
	lat     []int64 // RTTs of replies that arrived inside the window
	sent    int
	got     int
	returns int
	done    bool
	ops     []opSpan
}

type overcommit struct {
	cl             *hostos.Cluster
	clients        []*ocClient
	served         []int64 // requests the server handled inside the window, per client
	srvPolls       []pollCount
	startAt, endAt sim.Time
}

// setupOvercommit builds the paper's Fig. 6 MT-8 point: one server node
// whose NI has 8 endpoint frames, one server endpoint and one event-driven
// server thread per client, and more clients than frames, so endpoints are
// continuously re-mapped. Clients stream requests for a virtual warm-up plus
// a measurement window, then stop and let what is in flight complete.
//
// The workload has no generated input — its clients are closed-loop streams
// on dedicated nodes — so the workload seed changes nothing here. That is
// deliberate: which clients starve depends chaotically on any perturbation
// (with the cluster's own PRNG seeded from 1 to 10, virt_p99_us ranged from
// 4.6 to 23 ms), and a number that moves fivefold with the seed cannot carry
// a regression bound.
func setupOvercommit(cfg runCfg) (job, error) {
	clients := 24
	warmup, window := 100*sim.Millisecond, 500*sim.Millisecond
	if cfg.toy {
		clients = 12
		warmup, window = 10*sim.Millisecond, 40*sim.Millisecond
	}
	const handlerWork = 6 * sim.Microsecond
	ccfg := hostos.DefaultClusterConfig()
	ccfg.NIC.Frames = 8
	cl := hostos.NewCluster(engineSeed, clients+1, ccfg)
	cfg.prepare(cl)
	j := &overcommit{
		cl:       cl,
		served:   make([]int64, clients),
		srvPolls: make([]pollCount, clients),
		startAt:  sim.Time(warmup),
		endAt:    sim.Time(warmup + window),
	}
	traced := cfg.spans != nil
	server := cl.Nodes[0]
	for i := 0; i < clients; i++ {
		// Each server endpoint gets its own bundle, so its thread sleeps
		// and wakes independently of the others.
		sb := core.Attach(server)
		sep, err := sb.NewEndpoint(core.Key(1000+i), 2)
		if err != nil {
			return nil, err
		}
		cliNode := cl.Nodes[i+1]
		cep, err := core.Attach(cliNode).NewEndpoint(core.Key(2000+i), 4)
		if err != nil {
			return nil, err
		}
		if err := cep.Map(0, sep.Name(), core.Key(1000+i)); err != nil {
			return nil, err
		}
		if err := sep.Map(0, cep.Name(), core.Key(2000+i)); err != nil {
			return nil, err
		}
		c := &ocClient{}
		j.clients = append(j.clients, c)
		ci := i

		sep.SetHandler(hReq, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
			if now := p.Now(); now >= j.startAt && now < j.endAt {
				j.served[ci]++
			}
			server.Compute(p, handlerWork)
			tok.Reply(p, hRep, args)
		})
		sep.SetEventMask(true)
		server.Spawn(fmt.Sprintf("oc-srv%d", i), func(p *sim.Proc) {
			for {
				sb.Wait(p)
				for j.srvPolls[ci].poll(p, sep) > 0 {
				}
			}
		})

		cep.SetHandler(hRep, func(p *sim.Proc, _ *core.Token, args [4]uint64, _ []byte) {
			seq := args[1]
			if seq < uint64(len(c.seen)) {
				c.seen[seq]++
			}
			c.got++
			now := p.Now()
			if now >= j.startAt && now < j.endAt {
				c.lat = append(c.lat, int64(now)-int64(args[0]))
			}
			if traced && seq%opSampleEvery == 0 {
				c.ops[seq/opSampleEvery].end = now
			}
		})
		cep.SetReturnHandler(func(*sim.Proc, nic.NackReason, int, int, [4]uint64, []byte) { c.returns++ })
		cliNode.Spawn(fmt.Sprintf("oc-cli%d", i), func(p *sim.Proc) {
			for p.Now() < j.endAt {
				seq := len(c.seen)
				c.seen = append(c.seen, 0)
				args := [4]uint64{uint64(p.Now()), uint64(seq)}
				if requestOp(p, cep, args, traced, ci, int64(seq), &c.ops) != nil {
					return
				}
				c.sent++
				c.poll(p, cep)
			}
			// Window over: stop issuing and collect what is in flight. A
			// starved endpoint's requests sit behind NACK back-off and a
			// re-mapping, so this can take many virtual milliseconds.
			for c.got+c.returns < c.sent {
				if c.poll(p, cep) == 0 {
					p.Sleep(5 * sim.Microsecond)
				}
			}
			c.done = true
		})
	}
	return j, nil
}

func (j *overcommit) cluster() *hostos.Cluster { return j.cl }

func (j *overcommit) run(mark func()) {
	j.cl.RunUntil(j.startAt)
	mark()
	j.cl.RunUntil(j.endAt)
}

func (j *overcommit) allDone() bool {
	for _, c := range j.clients {
		if !c.done {
			return false
		}
	}
	return true
}

func (j *overcommit) drain() {
	limit := j.endAt.Add(2 * sim.Second)
	for !j.allDone() && j.cl.Now() < limit {
		j.cl.RunFor(sim.Millisecond)
	}
}

func (j *overcommit) harvest(o *outcome) {
	o.virtDur = j.endAt.Sub(j.startAt)
	for i, c := range j.clients {
		o.attempted += int64(c.sent)
		o.good += int64(c.got)
		o.ops += j.served[i]
		o.coreReturns += int64(c.returns)
		o.polls += c.polls + j.srvPolls[i].polls
		o.emptyPolls += c.empty + j.srvPolls[i].empty
		o.lat = append(o.lat, c.lat...)
		if !c.done || c.got+c.returns != c.sent {
			o.breach("overcommit-cs: client %d lost requests: %d replies + %d returns of %d sent", i, c.got, c.returns, c.sent)
		}
		if d := duplicates(c.seen); d > 0 {
			o.broken += int64(d)
			o.breach("overcommit-cs: client %d had %d requests answered more than once", i, d)
		}
		o.ops64 = append(o.ops64, c.ops...)
	}
	o.done = o.ops
}
