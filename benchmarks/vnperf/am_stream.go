package main

import (
	"fmt"
	"math/rand"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/nic"
	"virtnet/internal/sim"
)

// Handler indices shared by the two Active Message workloads.
const (
	hReq = 1
	hRep = 2
)

// pollCount counts one driver loop's polls and how many found nothing.
type pollCount struct{ polls, empty int64 }

// poll polls ep once and counts the outcome.
func (c *pollCount) poll(p *sim.Proc, ep *core.Endpoint) int {
	c.polls++
	n := ep.Poll(p)
	if n == 0 {
		c.empty++
	}
	return n
}

// requestOp sends one short request. One operation in opSampleEvery is
// sampled when spans are on: its request joins a trace the harness names, so
// that its flights can be found afterwards, and the call's virtual-time span
// is appended to ops (at index seq/opSampleEvery, which the reply handler
// relies on to close it).
func requestOp(p *sim.Proc, ep *core.Endpoint, args [4]uint64, traced bool, client int, seq int64, ops *[]opSpan) error {
	if !traced || seq%opSampleEvery != 0 {
		return ep.Request(p, 0, hReq, args)
	}
	o := opSpan{client: client, op: seq, call: "Endpoint.Request", start: p.Now(), trace: opTraceID(client, seq)}
	prev := ep.SetTrace(o.trace)
	err := ep.Request(p, 0, hReq, args)
	ep.SetTrace(prev)
	o.callEnd = p.Now()
	*ops = append(*ops, o)
	return err
}

// amClient is one streaming client and its exactly-once ledger.
type amClient struct {
	pollCount
	seen    []uint8 // replies per request sequence number; all must be 1
	lat     []int64
	got     int
	done    bool
	doneAt  sim.Time
	returns int64
	ops     []opSpan
}

type amStream struct {
	cl      *hostos.Cluster
	clients []*amClient
	servers []*pollCount
	msgs    int
}

// setupAMStream builds the am-stream workload: 8 client/server pairs on a
// 16-node cluster, each client streaming 6,000 short requests back to back
// at a polling server with the credit window as the only throttle. The seed
// chooses which nodes pair up, so some seeds put more pairs across the
// spine than others. A repetition is kept to about half a host second: the
// machine's noise wanders over tens of seconds, and the median of forty
// short repetitions follows it less than the median of six long ones.
func setupAMStream(cfg runCfg) (job, error) {
	pairs, msgs := 8, 6000
	if cfg.toy {
		pairs, msgs = 3, 400
	}
	cl := hostos.NewCluster(engineSeed, 2*pairs, hostos.DefaultClusterConfig())
	cfg.prepare(cl)
	j := &amStream{cl: cl, msgs: msgs}
	perm := rand.New(rand.NewSource(cfg.seed)).Perm(2 * pairs)
	for i := 0; i < pairs; i++ {
		srvNode, cliNode := cl.Nodes[perm[2*i]], cl.Nodes[perm[2*i+1]]
		sep, err := core.Attach(srvNode).NewEndpoint(core.Key(100+i), 8)
		if err != nil {
			return nil, err
		}
		cep, err := core.Attach(cliNode).NewEndpoint(core.Key(200+i), 8)
		if err != nil {
			return nil, err
		}
		if err := sep.Map(0, cep.Name(), core.Key(200+i)); err != nil {
			return nil, err
		}
		if err := cep.Map(0, sep.Name(), core.Key(100+i)); err != nil {
			return nil, err
		}
		c := &amClient{seen: make([]uint8, msgs), lat: make([]int64, 0, msgs)}
		s := &pollCount{}
		j.clients = append(j.clients, c)
		j.servers = append(j.servers, s)
		ci := i
		traced := cfg.spans != nil

		sep.SetHandler(hReq, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
			tok.Reply(p, hRep, args)
		})
		cep.SetHandler(hRep, func(p *sim.Proc, _ *core.Token, args [4]uint64, _ []byte) {
			seq := args[0]
			if seq < uint64(len(c.seen)) {
				c.seen[seq]++
			}
			c.got++
			c.lat = append(c.lat, int64(p.Now())-int64(args[1]))
			if traced && seq%opSampleEvery == 0 {
				c.ops[seq/opSampleEvery].end = p.Now()
			}
		})
		cep.SetReturnHandler(func(*sim.Proc, nic.NackReason, int, int, [4]uint64, []byte) { c.returns++ })
		srvNode.Spawn(fmt.Sprintf("am-srv%d", i), func(p *sim.Proc) {
			for {
				if s.poll(p, sep) == 0 {
					p.Sleep(sim.Microsecond)
				}
			}
		})
		cliNode.Spawn(fmt.Sprintf("am-cli%d", i), func(p *sim.Proc) {
			for seq := 0; seq < msgs; seq++ {
				args := [4]uint64{uint64(seq), uint64(p.Now())}
				if requestOp(p, cep, args, traced, ci, int64(seq), &c.ops) != nil {
					return
				}
				c.poll(p, cep)
			}
			for c.got+int(c.returns) < msgs {
				c.poll(p, cep)
				p.Sleep(sim.Microsecond)
			}
			c.done = true
			c.doneAt = p.Now()
		})
	}
	return j, nil
}

func (j *amStream) cluster() *hostos.Cluster { return j.cl }

func (j *amStream) allDone() bool {
	for _, c := range j.clients {
		if !c.done {
			return false
		}
	}
	return true
}

func (j *amStream) run(mark func()) {
	mark()
	// Quarter-millisecond slices: the run is about 75 virtual milliseconds,
	// so stopping at the slice after the last reply overshoots by well under
	// one percent.
	limit := sim.Time(0).Add(60 * sim.Second)
	for !j.allDone() && j.cl.Now() < limit {
		j.cl.RunFor(250 * sim.Microsecond)
	}
}

func (j *amStream) drain() {}

func (j *amStream) harvest(o *outcome) {
	for i, c := range j.clients {
		o.attempted += int64(j.msgs)
		o.good += int64(c.got)
		o.coreReturns += c.returns
		o.polls += c.polls + j.servers[i].polls
		o.emptyPolls += c.empty + j.servers[i].empty
		o.lat = append(o.lat, c.lat...)
		if c.doneAt > sim.Time(o.virtDur) {
			o.virtDur = sim.Duration(c.doneAt)
		}
		if !c.done || c.got+int(c.returns) != j.msgs {
			o.breach("am-stream: client %d lost requests: %d replies + %d returns of %d", i, c.got, c.returns, j.msgs)
		}
		if d := duplicates(c.seen); d > 0 {
			o.broken += int64(d)
			o.breach("am-stream: client %d had %d requests answered more than once", i, d)
		}
		o.ops64 = append(o.ops64, c.ops...)
	}
	o.ops, o.done = o.good, o.good
}

// duplicates counts ledger entries answered more than once.
func duplicates(seen []uint8) int {
	d := 0
	for _, n := range seen {
		if n > 1 {
			d++
		}
	}
	return d
}
