package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/reliab"
	"virtnet/internal/rpc"
	"virtnet/internal/sim"
)

const (
	procEcho     = 1
	scalePayload = 64
	scaleThink   = 100 * sim.Microsecond // think times are uniform in [0, scaleThink)
)

// scalePair is one client/server pair. The client proc and the server proc
// may run on different shards, so each touches only its own fields.
type scalePair struct {
	srv *rpc.Server
	cli *rpc.Client
	// Server side: executions per call sequence number; all must be 1.
	executed []uint8
	// Client side.
	lat    []int64
	ok     int
	bad    int // calls that returned an error or the wrong bytes
	done   bool
	doneAt sim.Time
	ops    []opSpan
	srvM   *reliab.Metrics
	cliM   *reliab.Metrics
}

type scale struct {
	cl    *hostos.Cluster
	pairs []*scalePair
	calls int
	stop  bool
}

// setupScale builds the scale-1024 workload: 1,024 hosts on a three-level
// fat tree split over two engine shards, 512 client/server pairs of which
// about a quarter cross leaves and shards. Every server runs the library's
// own Serve loop; every client makes synchronous 64-byte Calls separated by
// seeded think times. Traffic is sparse, so what the simulator spends its
// time on is waiting: the Call and Serve wait loops, timers, barrier
// windows and the cross-shard exchange.
func setupScale(cfg runCfg) (job, error) {
	hosts, calls := 1024, 16
	if cfg.toy {
		hosts, calls = 64, 6
	}
	npairs := hosts / 2
	cl := hostos.NewShardedCluster(engineSeed, hosts, 2, bigTree())
	cfg.prepare(cl)
	j := &scale{cl: cl, calls: calls}
	traced := cfg.spans != nil
	stopFn := func() bool { return j.stop }
	rot := int(uint64(cfg.seed) % 4)
	for i := 0; i < npairs; i++ {
		srvHost, cliHost := placeSimperf(i, npairs, rot)
		srvNode, cliNode := cl.Nodes[srvHost], cl.Nodes[cliHost]
		pr := &scalePair{
			executed: make([]uint8, calls),
			lat:      make([]int64, 0, calls),
			srvM:     reliab.NewMetrics(),
			cliM:     reliab.NewMetrics(),
		}
		srv, err := rpc.NewServerOpts(srvNode, core.Key(5000+i), rpc.Options{Metrics: pr.srvM})
		if err != nil {
			return nil, err
		}
		srv.Register(procEcho, func(_ *sim.Proc, args []byte) ([]byte, error) {
			if seq := binary.LittleEndian.Uint64(args); seq < uint64(len(pr.executed)) {
				pr.executed[seq]++
			}
			return args, nil
		})
		cli, err := rpc.NewClientOpts(cliNode, srv.Name(), srv.Key(), rpc.Options{Metrics: pr.cliM})
		if err != nil {
			return nil, err
		}
		pr.srv, pr.cli = srv, cli
		j.pairs = append(j.pairs, pr)
		ci := i
		think := rand.New(rand.NewSource(cfg.seed<<20 + int64(i)))

		srvNode.Spawn(fmt.Sprintf("sc-srv%d", i), func(p *sim.Proc) { srv.Serve(p, stopFn) })
		cliNode.Spawn(fmt.Sprintf("sc-cli%d", i), func(p *sim.Proc) {
			payload := make([]byte, scalePayload)
			binary.LittleEndian.PutUint64(payload[8:], uint64(ci))
			for k := 0; k < calls; k++ {
				p.Sleep(sim.Duration(think.Int63n(int64(scaleThink))))
				binary.LittleEndian.PutUint64(payload, uint64(k))
				t0 := p.Now()
				var res []byte
				var err error
				if traced && (ci+k)%opSampleEvery == 0 {
					o := opSpan{client: ci, op: int64(k), call: "Client.Call", start: t0, trace: opTraceID(ci, int64(k))}
					res, err = cli.CallCtx(p, procEcho, payload, reliab.Ctx{Trace: o.trace})
					o.callEnd, o.end = p.Now(), p.Now()
					pr.ops = append(pr.ops, o)
				} else {
					res, err = cli.Call(p, procEcho, payload, 0)
				}
				if err != nil || !bytes.Equal(res, payload) {
					pr.bad++
					continue
				}
				pr.ok++
				pr.lat = append(pr.lat, int64(p.Now().Sub(t0)))
			}
			pr.done = true
			pr.doneAt = p.Now()
		})
	}
	return j, nil
}

func (j *scale) cluster() *hostos.Cluster { return j.cl }

func (j *scale) allDone() bool {
	for _, pr := range j.pairs {
		if !pr.done {
			return false
		}
	}
	return true
}

func (j *scale) run(mark func()) {
	mark()
	// The whole run is a few virtual milliseconds, so the slice must be
	// short for the clock to stop close to the last reply: at 50 µs the
	// overshoot is one or two percent of idle servers.
	limit := sim.Time(0).Add(10 * sim.Second)
	for !j.allDone() && j.cl.Now() < limit {
		j.cl.RunFor(50 * sim.Microsecond)
	}
}

func (j *scale) drain() {
	j.stop = true
	// Serve re-checks its stop function when its 10 ms idle wait expires.
	j.cl.RunFor(11 * sim.Millisecond)
}

func (j *scale) harvest(o *outcome) {
	o.rel = map[string]int64{}
	for i, pr := range j.pairs {
		o.attempted += int64(j.calls)
		o.good += int64(pr.ok)
		o.lat = append(o.lat, pr.lat...)
		if pr.doneAt > sim.Time(o.virtDur) {
			o.virtDur = sim.Duration(pr.doneAt)
		}
		if !pr.done || pr.ok+pr.bad != j.calls {
			o.breach("scale-1024: client %d did not finish (%d ok + %d bad of %d calls)", i, pr.ok, pr.bad, j.calls)
		}
		if pr.bad > 0 {
			o.broken += int64(pr.bad)
			o.breach("scale-1024: client %d had %d calls fail or return the wrong bytes", i, pr.bad)
		}
		for seq, n := range pr.executed {
			if n != 1 {
				o.broken++
				o.breach("scale-1024: server %d executed call %d %d times", i, seq, n)
				break
			}
		}
		o.serverOps += int64(sum8(pr.executed))
		addOutstanding(o, fmt.Sprintf("scale-1024 pair %d", i), pr.srv, pr.cli.Outstanding)
		addRel(o, pr.cliM, pr.srvM)
		o.ops64 = append(o.ops64, pr.ops...)
	}
	o.ops, o.done = o.good, o.good
}

func sum8(xs []uint8) int {
	n := 0
	for _, x := range xs {
		n += int(x)
	}
	return n
}

// addRel folds one client's and one server's reliab counters into o (either
// may be nil). Both sides count re-issues under "retries": a client's is a
// call fragment it sent again, a server's a result it sent again, and the
// two are reported apart.
func addRel(o *outcome, cli, srv *reliab.Metrics) {
	for _, n := range []string{"shed", "overload_nacks", "deadline_exceeded", "breaker_open"} {
		o.rel[n] += cli.Get(n) + srv.Get(n)
	}
	o.rel["retries"] += cli.Get("retries")
	o.srvRetries += srv.Get("retries")
}

// addOutstanding checks that an rpc server and the client side talking to it
// hold no call state at the end of the run.
func addOutstanding(o *outcome, who string, srv *rpc.Server, client func() (int, int, int)) {
	calls, reissues, queued, deferred := srv.Outstanding()
	n := calls + reissues + queued + deferred
	if client != nil {
		r, ri, d := client()
		n += r + ri + d
	}
	o.rpcOutstanding += int64(n)
	if n != 0 {
		o.breach("%s: %d rpc bookkeeping entries outstanding at the end", who, n)
	}
}
