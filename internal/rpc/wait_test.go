package rpc

import (
	"fmt"
	"reflect"
	"testing"

	"virtnet/internal/hostos"
	"virtnet/internal/reliab"
	"virtnet/internal/sim"
)

// The blocking wait as it was before it became a client of
// core.Endpoint.IdlePoll: poll, flush, sleep 5 µs, every turn. Kept here as
// the reference the converted wait must match to the nanosecond, through
// every entry point (Client is a one-target Pool, so one reference serves
// all three). tops logs the virtual time of every loop-top check.
func literalWait(p *sim.Proc, pc *PoolPending, deadline sim.Time, tops *[]sim.Time) ([]byte, error) {
	pl := pc.pl
	defer pc.Abandon()
	for !pc.rb.done {
		*tops = append(*tops, p.Now())
		if pl.targets[pc.rb.tgt].dead || pc.rb.failed {
			return nil, pl.fail(p, pc.rb.tgt, ErrUnreachable)
		}
		if deadline != 0 && p.Now() >= deadline {
			return nil, pl.fail(p, pc.rb.tgt, ErrTimeout)
		}
		if pl.Poll(p) == 0 {
			p.Sleep(5 * sim.Microsecond)
		}
	}
	return pl.finish(p, pc.rb)
}

// waitWorld is what the server side of a wait scenario looks like.
type waitWorld struct {
	name     string
	service  sim.Duration // procedure run time
	linkDown bool         // server unreachable: call fragments time out and bounce
	badKey   bool         // client holds the wrong key: permanent nack, client dead
}

// waitOutcome is everything a run must reproduce.
type waitOutcome struct {
	Err      string
	Out      []byte
	At       sim.Time // when the wait returned
	Served   int64
	Retries  int64
	Denied   int64
	Breaker  reliab.BreakerState
	Leftover [3]int

	fired uint64
	tops  []sim.Time
	base  sim.Time // the instant the entry point counts its timeout from
}

const (
	apiCall = iota // Client.Call with a timeout
	apiPending
	apiPool
	numAPIs
)

// runWait plays one wait against w: api picks the entry point, timeout the
// call's deadline (0 = none), literal the reference loop instead of the
// library's.
func runWait(t *testing.T, w waitWorld, api int, timeout sim.Duration, literal bool) waitOutcome {
	t.Helper()
	cfg := hostos.DefaultClusterConfig()
	// Bounces from an unreachable server must land within a few hundred µs.
	cfg.NIC.RetransBase = 40 * sim.Microsecond
	cfg.NIC.RetransMax = 80 * sim.Microsecond
	cfg.NIC.ReturnToSenderAfter = 250 * sim.Microsecond
	c := hostos.NewCluster(1, 2, cfg)
	defer c.Shutdown()
	s, err := NewServer(c.Nodes[0], 77)
	if err != nil {
		t.Fatal(err)
	}
	s.Register(1, func(p *sim.Proc, args []byte) ([]byte, error) {
		p.Sleep(w.service)
		return append([]byte{0xee}, args...), nil
	})
	c.Nodes[0].Spawn("server", func(p *sim.Proc) {
		for {
			if s.Poll(p) == 0 {
				p.Sleep(5 * sim.Microsecond)
			}
		}
	})
	if w.linkDown {
		c.ShardNet(0).SetHostLinkDown(0, true)
	}
	key := s.Key()
	if w.badKey {
		key++
	}
	m := reliab.NewMetrics()
	opts := Options{Metrics: m}
	var out waitOutcome
	c.Nodes[1].Spawn("client", func(p *sim.Proc) {
		args := []byte{1, 2, 3}
		var res []byte
		var err error
		if api == apiPool {
			pl, e := NewPool(c.Nodes[1], 2, opts)
			if e != nil {
				t.Error(e)
				return
			}
			pl.Add(s.Name(), key)
			p.Sleep(7 * sim.Microsecond)
			out.base = p.Now()
			ctx := reliab.Ctx{}
			if timeout > 0 {
				ctx.Deadline = p.Now().Add(timeout)
			}
			pc, e := pl.GoCtx(p, 0, 1, args, ctx)
			if e != nil {
				t.Error(e)
				return
			}
			if literal {
				res, err = literalWait(p, pc, ctx.Deadline, &out.tops)
			} else {
				res, err = pc.WaitTimeout(p, 0)
			}
			out.Breaker = pl.targets[0].brk.State()
			r, ri, d := pl.Outstanding()
			out.Leftover = [3]int{r, ri, d}
		} else {
			cl, e := NewClientOpts(c.Nodes[1], s.Name(), key, opts)
			if e != nil {
				t.Error(e)
				return
			}
			p.Sleep(7 * sim.Microsecond)
			out.base = p.Now()
			switch {
			case api == apiCall && !literal:
				res, err = cl.Call(p, 1, args, timeout)
			case api == apiCall:
				ctx := reliab.Ctx{}
				if timeout > 0 {
					ctx.Deadline = p.Now().Add(timeout)
				}
				pc, e := cl.pl.send(p, 0, 1, args, ctx)
				if e != nil {
					t.Error(e)
					return
				}
				res, err = literalWait(p, &pc, ctx.Deadline, &out.tops)
			default:
				// PoolPending.WaitTimeout measures its timeout from the wait, not
				// from the send.
				pc, e := cl.pl.GoCtx(p, 0, 1, args, reliab.Ctx{})
				if e != nil {
					t.Error(e)
					return
				}
				out.base = p.Now()
				if literal {
					var deadline sim.Time
					if timeout > 0 {
						deadline = p.Now().Add(timeout)
					}
					res, err = literalWait(p, pc, deadline, &out.tops)
				} else {
					res, err = pc.WaitTimeout(p, timeout)
				}
			}
			out.Breaker = cl.pl.targets[0].brk.State()
			r, ri, d := cl.Outstanding()
			out.Leftover = [3]int{r, ri, d}
		}
		out.Out, out.At = res, p.Now()
		out.Err = fmt.Sprint(err)
	})
	c.RunFor(20 * sim.Millisecond)
	out.Served = s.Served
	out.Retries, out.Denied = m.Get("retries"), m.Get("retry_denied")
	out.fired = c.EngineStats().Fired
	return out
}

// TestWaitsMatchLiteralLoops: Call, PoolPending.WaitTimeout and
// PoolPending.WaitTimeout return the same result or error at the same
// virtual nanosecond as the poll-every-5-µs loops they replaced — for
// deadlines exactly on a loop-top instant, one ns either side and well off
// it, with the result arriving, with bounced fragments parked for re-issue
// (the pump's due time must end the elided stretch), and with the client
// marked dead by a permanent nack.
func TestWaitsMatchLiteralLoops(t *testing.T) {
	worlds := []waitWorld{
		{name: "answers", service: 150 * sim.Microsecond},
		{name: "unreachable", linkDown: true},
		{name: "bad-key", badKey: true},
	}
	var timeouts, onTop, unreachable, reissued, answered int
	for _, w := range worlds {
		for api := 0; api < numAPIs; api++ {
			// The undisturbed wait tells where the loop-top instants are.
			probe := runWait(t, w, api, 0, true)
			// No deadline, and one generous enough never to fire.
			deadlines := map[sim.Duration]bool{0: true, probe.At.Sub(probe.base) + 100*sim.Microsecond: true}
			step := len(probe.tops)/12 + 1
			if testing.Short() {
				step *= 4
			}
			for i := 1; i < len(probe.tops); i += step {
				d := probe.tops[i].Sub(probe.base)
				deadlines[d-1], deadlines[d], deadlines[d+1], deadlines[d+2617] = true, true, true, true
			}
			for timeout := range deadlines {
				if timeout < 0 {
					continue
				}
				lit := runWait(t, w, api, timeout, true)
				eli := runWait(t, w, api, timeout, false)
				tops := lit.tops
				lit.tops = nil
				lf, ef := lit.fired, eli.fired
				lit.fired, eli.fired = 0, 0
				if lit.Err == ErrTimeout.Error() && deadlines[timeout-1] && deadlines[timeout+1] && tops[len(tops)-1] == lit.base.Add(timeout) {
					onTop++
				}
				if !reflect.DeepEqual(lit, eli) {
					t.Fatalf("%s api %d timeout %d:\nliteral %+v\nelided  %+v", w.name, api, timeout, lit, eli)
				}
				if ef > lf || (len(tops) > 12 && ef >= lf) {
					t.Fatalf("%s api %d timeout %d: elided wait fired %d events, literal %d", w.name, api, timeout, ef, lf)
				}
				switch {
				case lit.Err == ErrTimeout.Error():
					timeouts++
					if lit.Retries > 0 {
						reissued++
					}
				case lit.Err == ErrUnreachable.Error():
					unreachable++
				case lit.Err == "<nil>":
					answered++
				}
			}
		}
	}
	t.Logf("%d timeouts (%d exactly on a loop top, %d with re-issues under way), %d unreachable, %d answered", timeouts, onTop, reissued, unreachable, answered)
	if onTop == 0 || reissued == 0 || unreachable == 0 || answered == 0 {
		t.Fatal("the sweep missed a case")
	}
}
