package bench

import (
	"fmt"
	"io"

	"virtnet/internal/fault"
	"virtnet/internal/hostos"
	"virtnet/internal/reliab"
	"virtnet/internal/rpc"
	"virtnet/internal/sim"
	"virtnet/internal/trace"
)

// degradeRow is the graceful-degradation experiment (DESIGN.md §10): an
// open-loop Poisson request stream sweeps offered load from well under to
// 3x the service capacity of a two-server pool, with a 5 ms end-to-end
// deadline on every request. With the reliability layer on (bounded
// admission queues, deadline shedding at every tier, budgeted backoff
// retries, circuit breakers), goodput — replies that are correct AND within
// deadline — plateaus near capacity as offered load keeps climbing, with
// bounded p99. The ablation (unbounded FIFO, no shedding, blind immediate
// retries on timeout) serves ever-staler work past saturation: goodput
// collapses even though the servers stay 100% busy. A third variant re-runs
// the reliability layer under fault churn (loss bursts, a client cut off,
// a firmware reboot) to show the plateau survives an unreliable fabric.
func degradeRow(w io.Writer, p Params) error {
	header(w, "graceful degradation under overload — goodput vs offered load")
	const (
		nodes     = 8
		nServers  = 2
		key       = 91
		service   = 200 * sim.Microsecond
		deadline  = 5 * sim.Millisecond
		queue     = 16 // bounded admission: 16 x 200us = 3.2ms < deadline
		maxOut    = 32 // per-client outstanding cap
		blindMax  = 3  // ablation: total attempts per request
		churnPlan = "burst:all@120ms+80ms:0.05,hostlink:6@220ms+30ms,reboot:node7@300ms"
	)
	nClients := nodes - nServers
	capacity := float64(nServers) * float64(sim.Second) / float64(service) // rps
	const measure = 400 * sim.Millisecond
	factors := []float64{0.25, 0.5, 1.0, 1.5, 2.0, 3.0}
	fmt.Fprintf(w, "capacity ~ %.0f rps (%d servers x %v service), deadline %v, %d open-loop clients\n",
		capacity, nServers, sim.Time(0).Add(service).Sub(0), sim.Time(0).Add(deadline).Sub(0), nClients)

	type row struct {
		offered, good, failed, capped int
		shed, overload                int64
		p99                           sim.Duration
	}

	run := func(factor float64, reliabOn bool, churn string) (row, error) {
		c := hostos.NewCluster(p.Seed, nodes, hostos.DefaultClusterConfig())
		defer c.Shutdown()
		var fail failure
		m := reliab.NewMetrics()
		stop := false

		var servers []*rpc.Server
		for si := 0; si < nServers; si++ {
			opts := rpc.Options{Queue: queue, Metrics: m}
			if !reliabOn {
				// Ablation: effectively unbounded FIFO, deadlines ignored.
				opts = rpc.Options{Queue: 1 << 20, NoShed: true, Metrics: m}
			}
			s, err := rpc.NewServerOpts(c.Nodes[si], key, opts)
			if err != nil {
				return row{}, fmt.Errorf("server: %w", err)
			}
			node := c.Nodes[si]
			s.Register(1, func(p *sim.Proc, args []byte) ([]byte, error) {
				node.Compute(p, service)
				return args, nil
			})
			node.Spawn("degrade-server", func(p *sim.Proc) { pollServe(p, s, &stop) })
			servers = append(servers, s)
		}

		if churn != "" {
			pl, err := fault.Parse(churn)
			if err != nil {
				return row{}, fmt.Errorf("churn plan: %w", err)
			}
			pl.Apply(c)
		}

		end := sim.Time(0).Add(measure)
		perClient := capacity * factor / float64(nClients)
		meanGap := float64(sim.Second) / perClient
		var offered, good, failed, capped int
		lats := trace.NewHist()

		type callRec struct {
			pc       *rpc.Pending
			issued   sim.Time
			deadline sim.Time // original end-to-end deadline, kept across retries
			attempts int
			payload  []byte
		}

		for ci := 0; ci < nClients; ci++ {
			node := c.Nodes[nServers+ci]
			target := servers[ci%nServers]
			node.Spawn("degrade-client", func(p *sim.Proc) {
				opts := rpc.Options{Metrics: m}
				if !reliabOn {
					opts.NoBreaker = true
				}
				cl, err := rpc.NewClientOpts(node, target.Name(), key, opts)
				if err != nil {
					fail.failf("client: %w", err)
					return
				}
				rng := node.E.Rand()
				var inflight []*callRec
				next := sim.Time(0).Add(sim.Duration(rng.ExpFloat64() * meanGap))
				issue := func(rec *callRec, dl sim.Time) {
					rec.attempts++
					pc, err := cl.GoCtx(p, 1, rec.payload, reliab.Ctx{Deadline: dl})
					if err != nil {
						failed++
						return
					}
					rec.pc = pc
					inflight = append(inflight, rec)
				}
				for {
					now := p.Now()
					// Open-loop arrivals: the world does not slow down when
					// the system does.
					for next <= now && now < end {
						offered++
						if len(inflight) < maxOut {
							rec := &callRec{issued: now, deadline: now.Add(deadline),
								payload: []byte{byte(offered)}}
							issue(rec, rec.deadline)
						} else {
							capped++
						}
						next = next.Add(sim.Duration(rng.ExpFloat64() * meanGap))
					}
					// Harvest.
					kept := inflight[:0]
					for _, rec := range inflight {
						_, done, err := rec.pc.TryWait(p)
						switch {
						case done && err == nil:
							if now <= rec.deadline {
								good++
								lats.Observe(now.Sub(rec.issued))
							} else {
								failed++
							}
						case done:
							failed++
						case now > rec.deadline && reliabOn:
							// Deadline-aware: expired work is abandoned, not
							// re-offered.
							rec.pc.Abandon()
							failed++
						case now > rec.deadline.Add(deadline*sim.Duration(rec.attempts-1)) && !reliabOn:
							// Ablation: blind retry with a fresh transport
							// deadline (the user's deadline is long gone).
							rec.pc.Abandon()
							if rec.attempts < blindMax {
								issue(rec, now.Add(deadline))
							} else {
								failed++
							}
						default:
							kept = append(kept, rec)
						}
					}
					inflight = kept
					if now >= end && len(inflight) == 0 {
						return
					}
					if now >= end.Add(20*sim.Millisecond) {
						for _, rec := range inflight {
							rec.pc.Abandon()
							failed++
						}
						return
					}
					if cl.Poll(p) == 0 {
						p.Sleep(10 * sim.Microsecond)
					}
				}
			})
		}

		c.RunFor(measure + 50*sim.Millisecond)
		stop = true
		c.RunFor(sim.Millisecond)
		return row{offered: offered, good: good, failed: failed, capped: capped,
			shed: m.Get("shed"), overload: m.Get("overload_nacks"), p99: lats.Quantile(0.99)}, fail.err
	}

	secs := float64(measure) / float64(sim.Second)
	variants := []struct {
		title   string
		reliabs bool
		churn   string
	}{
		{"reliability layer on", true, ""},
		{"reliability layer off (ablation)", false, ""},
		{"reliability layer on + fault churn", true, churnPlan},
	}
	peak := map[int]float64{}
	at2x := map[int]float64{}
	for vi, v := range variants {
		fmt.Fprintf(w, "\n-- %s --\n", v.title)
		fmt.Fprintf(w, "%-9s %12s %12s %10s %9s %8s %9s %8s\n",
			"load", "offered/s", "goodput/s", "goodfrac", "p99_ms", "shed", "overload", "capped")
		for _, f := range factors {
			r, err := run(f, v.reliabs, v.churn)
			if err != nil {
				return err
			}
			goodput := float64(r.good) / secs
			frac := 0.0
			if r.offered > 0 {
				frac = float64(r.good) / float64(r.offered)
			}
			fmt.Fprintf(w, "%-9s %12.0f %12.0f %10.3f %9.2f %8d %9d %8d\n",
				fmt.Sprintf("%.2fx", f), float64(r.offered)/secs, goodput, frac,
				float64(r.p99)/float64(sim.Millisecond), r.shed, r.overload, r.capped)
			if goodput > peak[vi] {
				peak[vi] = goodput
			}
			if f == 2.0 {
				at2x[vi] = goodput
			}
		}
	}
	fmt.Fprintln(w)
	for vi, v := range variants {
		pct := 0.0
		if peak[vi] > 0 {
			pct = 100 * at2x[vi] / peak[vi]
		}
		fmt.Fprintf(w, "goodput at 2.0x offered: %3.0f%% of peak — %s\n", pct, v.title)
	}
	return nil
}
