package reliab

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"virtnet/internal/nic"
	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

// countingSource counts the draws taken from the PRNG behind a Retrier.
type countingSource struct {
	rand.Source
	draws int
}

func (c *countingSource) Int63() int64 { c.draws++; return c.Source.Int63() }

// retrierRig is one Retrier under test inside a running proc, with
// everything it touches observable: the PRNG draws, a twin PRNG that
// predicts the delays, the metrics, the tracer, and the sends put back on
// the wire (by key, in order).
type retrierRig struct {
	t      *testing.T
	p      *sim.Proc
	r      *Retrier[uint64]
	src    *countingSource
	twin   *rand.Rand
	m      *Metrics
	tr     *obs.Tracer
	budget *Budget
	sent   []uint64
	// onSend, if set, runs inside each re-send: where a real endpoint would
	// be polling while it waits for credits.
	onSend func(key uint64)
}

func (g *retrierRig) RequestBulk(p *sim.Proc, idx, h int, payload []byte, args [4]uint64) error {
	if idx != 0 || h != 7 || len(payload) != 2 || uint64(payload[0]) != args[0] || payload[1] != 0xAB {
		g.t.Errorf("re-send of key %d mangled: idx=%d h=%d payload=%v", args[0], idx, h, payload)
	}
	g.sent = append(g.sent, args[0])
	if g.onSend != nil {
		g.onSend(args[0])
	}
	return nil
}

// bounce hands the Retrier a returned send the way a return handler would:
// with a payload slice that is overwritten as soon as the handler returns.
func (g *retrierRig) bounce(key uint64, reason nic.NackReason, dstIdx int, trace uint64) Verdict {
	payload := []byte{byte(key), 0xAB}
	v := g.r.Bounce(g.p.Now(), key, reason, g.budget, Send{DstIdx: dstIdx, H: 7, Args: [4]uint64{key}, Payload: payload, Trace: trace})
	payload[0], payload[1] = 0xFF, 0xFF
	return v
}

func (g *retrierRig) transient(key uint64) Verdict { return g.bounce(key, nic.NackNotResident, 0, 0) }

// nextDelay predicts the delay the next park of a key parked n times so far
// will draw.
func (g *retrierRig) nextDelay(n int) sim.Duration { return Delay(n, g.twin) }

func (g *retrierRig) flush(live func(Send) bool) []uint64 {
	g.sent = nil
	if n := g.r.Flush(g.p, g, live); n != len(g.sent) {
		g.t.Errorf("Flush returned %d, sent %d", n, len(g.sent))
	}
	return g.sent
}

func (g *retrierRig) want(what string, got, want any) {
	g.t.Helper()
	if !reflect.DeepEqual(got, want) {
		g.t.Errorf("%s = %v, want %v", what, got, want)
	}
}

func (g *retrierRig) wantCounts(draws int, retries, denied int64) {
	g.t.Helper()
	g.want("PRNG draws", g.src.draws, draws)
	g.want("retries", g.m.Get("retries"), retries)
	g.want("retry_denied", g.m.Get("retry_denied"), denied)
}

func (g *retrierRig) outstanding() [2]int {
	a, p := g.r.Outstanding()
	return [2]int{a, p}
}

func TestRetrier(t *testing.T) {
	cases := []struct {
		name     string
		capacity int
		run      func(g *retrierRig)
	}{
		{"attempt cap is per key and denial draws nothing", 10, func(g *retrierRig) {
			for i, want := range []Verdict{Parked, Parked, Parked, Denied} {
				g.want(fmt.Sprint("bounce ", i), g.transient(1), want)
			}
			g.want("attempts after denial", g.r.Attempts(1), 0)
			g.wantCounts(3, 3, 1)
			g.want("tokens: the capped bounce is not charged", g.budget.Tokens(g.p.Now()), 7)
			g.want("another key", g.transient(2), Parked)
			g.want("attempts", g.r.Attempts(2), 1)
			g.wantCounts(4, 4, 1)
		}},
		{"an empty budget denies, a refilled one allows", 2, func(g *retrierRig) {
			for key, want := range []Verdict{Parked, Parked, Denied} {
				g.want(fmt.Sprint("key ", key), g.transient(uint64(key)), want)
			}
			g.wantCounts(2, 2, 1)
			g.want("outstanding", g.outstanding(), [2]int{2, 2})
			g.p.Sleep(250 * sim.Millisecond)
			g.want("after a refill", g.transient(2), Parked)
			g.wantCounts(3, 3, 1)
		}},
		{"a permanent nack charges, draws and counts nothing", 3, func(g *retrierRig) {
			g.want("transient first", g.transient(1), Parked)
			g.want("no endpoint", g.bounce(1, nic.NackNoEndpoint, 0, 0), Permanent)
			g.want("record retired", g.r.Attempts(1), 0)
			g.want("bad key", g.bounce(2, nic.NackBadKey, 0, 0), Permanent)
			g.want("no slot to re-send through", g.bounce(3, nic.NackNotResident, -1, 0), Permanent)
			g.wantCounts(1, 1, 0)
			g.want("tokens", g.budget.Tokens(g.p.Now()), 2)
			g.want("outstanding", g.outstanding(), [2]int{0, 1})
		}},
		{"due sends flush in park order, NextDue is the earliest", 10, func(g *retrierRig) {
			g.want("NextDue with nothing parked", g.r.NextDue(), sim.Never)
			// Key 1 is parked for the third time, so it waits the longest.
			g.transient(1)
			g.transient(1)
			g.nextDelay(0)
			g.nextDelay(1)
			g.p.Sleep(sim.Millisecond)
			g.want("earlier rounds", g.flush(nil), []uint64{1, 1})
			due := map[uint64]sim.Time{}
			for _, key := range []uint64{1, 2, 3} {
				due[key] = g.p.Now().Add(g.nextDelay(g.r.Attempts(key)))
				g.transient(key)
				g.p.Sleep(3 * sim.Microsecond)
			}
			first := min(due[2], due[3])
			if due[1] <= max(due[2], due[3]) || due[2] == due[3] {
				g.t.Errorf("want the twice-backed-off send due last and the others apart: %v", due)
				return
			}
			g.want("NextDue", g.r.NextDue(), first)
			g.p.Sleep(first.Sub(g.p.Now()) - 1)
			g.want("one ns early", g.flush(nil), []uint64(nil))
			g.p.Sleep(1)
			early := []uint64{2}
			if due[3] < due[2] {
				early = []uint64{3}
			}
			g.want("at the first due instant", g.flush(nil), early)
			g.want("NextDue after it", g.r.NextDue(), max(due[2], due[3]))
			g.p.Sleep(due[1].Sub(g.p.Now()))
			g.want("the rest, in park order", g.flush(nil), []uint64{1, 5 - early[0]})
			g.want("nothing parked", g.outstanding(), [2]int{3, 0})
			g.r.Forget(1)
			g.r.Forget(2)
			g.r.Forget(3)
			g.want("all acknowledged", g.outstanding(), [2]int{0, 0})
		}},
		{"a send abandoned while parked is dropped, span and all", 10, func(g *retrierRig) {
			root := g.tr.Sample(0, 0, obs.KindReq, g.p.Now())
			g.want("traced, abandoned", g.bounce(1, nic.NackOverrun, 0, root.TraceID), Parked)
			g.want("traced, awaited", g.bounce(2, nic.NackOverrun, 0, root.TraceID), Parked)
			g.want("untraced", g.transient(3), Parked)
			parkedAt := g.p.Now()
			g.want("open spans: root and two backoffs", g.tr.OpenCount(), 3)
			g.p.Sleep(sim.Millisecond)
			g.want("flush", g.flush(func(s Send) bool { return s.Args[0] != 1 }), []uint64{2, 3})
			g.want("outstanding", g.outstanding(), [2]int{3, 0})
			g.want("open spans: root", g.tr.OpenCount(), 1)
			var reasons []string
			for _, f := range g.tr.Flights() {
				if f.Kind != obs.KindOp {
					continue
				}
				reasons = append(reasons, f.DropReason)
				g.want("span trace", f.TraceID, root.TraceID)
				g.want("span stages", f.Stages, []obs.StageRec{{Stage: obs.StageBackoff, Start: parkedAt, End: g.p.Now()}})
			}
			g.want("span outcomes", reasons, []string{"abandoned", ""})
		}},
		{"a bounce parked while Flush is sending stays parked", 10, func(g *retrierRig) {
			g.transient(1)
			g.transient(2)
			g.p.Sleep(sim.Millisecond)
			g.onSend = func(key uint64) {
				if key == 1 {
					g.want("re-entrant bounce", g.transient(9), Parked)
				}
			}
			g.want("flush", g.flush(nil), []uint64{1, 2})
			g.want("outstanding", g.outstanding(), [2]int{3, 1})
			g.p.Sleep(sim.Millisecond)
			g.want("next flush", g.flush(nil), []uint64{9})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine(1)
			defer e.Shutdown()
			g := &retrierRig{t: t, src: &countingSource{Source: rand.NewSource(42)}, twin: rand.New(rand.NewSource(42)),
				m: NewMetrics(), tr: obs.NewTracer(e, 1, 1, 64),
				budget: NewBudget(BudgetConfig{Capacity: tc.capacity})}
			g.r = NewRetrier[uint64](rand.New(g.src))
			g.r.Metrics, g.r.Tracer = g.m, g.tr
			ran := false
			e.Spawn("retrier", func(p *sim.Proc) {
				g.p = p
				tc.run(g)
				ran = true
			})
			e.Run()
			if !ran {
				t.Fatal("the case did not run to its end")
			}
		})
	}
}

// A Retrier with no metrics and no tracer — how via holds its — parks and
// flushes all the same.
func TestRetrierWithoutObservers(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	g := &retrierRig{t: t, budget: NewBudget(BudgetConfig{})}
	g.r = NewRetrier[uint64](e.Rand())
	e.Spawn("retrier", func(p *sim.Proc) {
		g.p = p
		g.want("parked", g.bounce(1, nic.NackNotResident, 0, 77), Parked)
		g.want("parked again", g.transient(1), Parked)
		g.want("and again", g.transient(1), Parked)
		g.want("capped", g.transient(1), Denied)
		p.Sleep(sim.Millisecond)
		g.want("flush", g.flush(nil), []uint64{1, 1, 1})
	})
	e.Run()
}
