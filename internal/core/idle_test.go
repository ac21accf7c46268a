package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"virtnet/internal/hostos"
	"virtnet/internal/netsim"
	"virtnet/internal/nic"
	"virtnet/internal/sim"
)

// idleIter is one iteration of the literal loop: when it started, when its
// poll returned, how many messages that poll dispatched — and, for a
// backed-off wait, the tick it started with and which wait it belongs to.
type idleIter struct {
	Start, End sim.Time
	N          int
	Tick       sim.Duration
	Wait       int
}

// The oracle: IdlePoll's definition, executed literally. Kept only here.
// lat, when non-nil, logs every iteration.
func literalIdlePoll(ep *Endpoint, p *sim.Proc, tick sim.Duration, until sim.Time, lat *[]idleIter) (int, sim.Time) {
	for {
		start := p.Now()
		n := ep.Poll(p)
		if lat != nil {
			*lat = append(*lat, idleIter{Start: start, End: p.Now(), N: n})
		}
		if n > 0 || start >= until {
			return n, start
		}
		p.Sleep(tick)
	}
}

// PollBackoff's definition, executed literally: one turn of the loop in its
// doc comment. Kept only here. lat, when non-nil, logs the turn as part of
// wait number wait.
func literalPollBackoff(ep *Endpoint, p *sim.Proc, b *Backoff, lat *[]idleIter, wait int) int {
	if b.tick == 0 {
		b.tick = b.Base
	}
	start, tick := p.Now(), b.tick
	n := ep.Poll(p)
	if lat != nil {
		*lat = append(*lat, idleIter{start, p.Now(), n, tick, wait})
	}
	if n == 0 {
		p.Sleep(b.tick)
		if b.tick < b.Cap {
			b.tick *= 2
		}
	} else {
		b.tick = b.Base
	}
	return n
}

// idleSend is one message a peer sends to the waiting endpoint.
type idleSend struct {
	from  int // sending node
	at    sim.Time
	reply bool // the waiter's handler replies
	// aim, after the probe pass, shifts the send so the message becomes
	// visible (or, for aimDeposit, is deposited) at a chosen point of the
	// waiter's poll lattice.
	aim int
}

const (
	aimNone     = iota
	aimPop      // Visible exactly at a pop instant
	aimPopLess1 // one ns before it
	aimCharge   // strictly inside the poll-charge window
	aimTop      // exactly at an iteration start
	aimDeposit  // the deposit event itself lands on a pop instant
	numAims
)

// What the waiter does from t0: IdlePoll, or one of three backed-off waits
// shaped like the library's, each on its literal loop or on PollBackoff.
const (
	waitIdle    = iota // IdlePoll until the plan's bound
	waitCredit         // requests past the credit window, each waiting for a credit
	waitReplies        // splitc.StoreSync-shaped: requests out, then a wait for their answers
	waitSendQ          // the send queue filled behind a blocked head, then a wait for space
	numWaits
)

// idlePlan is one seeded schedule, pure data so the literal and the elided
// runs replay exactly the same world.
type idlePlan struct {
	wait      int
	target    int          // the translation the backed-off waits send to
	extra     int          // waitCredit: stalled requests; waitReplies: requests per round
	sqDelay   sim.Duration // waitSendQ: pause between filling the queue and waiting (aimed)
	siblingAt []sim.Time   // a second thread polls the waiter's endpoint
	shards    int
	tick      sim.Duration
	shared    bool
	frames    int
	warm      bool // the waiter sends before waiting, so it starts resident
	t0        sim.Time
	until     sim.Time
	sends     []idleSend
	bogus     int        // requests to a nonexistent endpoint: prompt returns
	dead      int        // requests to a host with its link down: late returns
	hogAt     []sim.Time // a second endpoint on the waiter's node claims a frame
	freezeAt  sim.Time   // 0: never
	closeAt   sim.Time   // 0: never
	modeAt    sim.Time   // 0: never; flips Shared/Exclusive mid-wait
	end       sim.Time
	unhookFor string // test-the-test: which wake source to sabotage
}

type idlePop struct {
	At     sim.Time
	ID     uint64
	Return bool
}

// idleRet is what one IdlePoll returned, or how one backed-off wait ended.
type idleRet struct {
	N          int
	Start, Now sim.Time
	Tick       sim.Duration
	Err        string
}

// idleTrace is everything the two runs must agree on (and Fired, on which
// they must not).
type idleTrace struct {
	Pops    []idlePop
	Rets    []idleRet
	End     sim.Time
	Visible []sim.Time // per deposit, in deposit order
	Deposit []sim.Time
	Space   []sim.Time // the NI took the waiter's send queue from full to not full

	stats   sim.Stats
	lattice []idleIter // literal run only
	sqFrom  sim.Time   // waitSendQ: when the wait for space began
}

// popInstants returns each literal iteration's pop instant: where its poll
// ended if it found nothing, else its start plus the charge the last empty
// iteration paid (0: unknown).
func popInstants(lat []idleIter) []sim.Time {
	out := make([]sim.Time, len(lat))
	var charge sim.Duration
	for i, it := range lat {
		switch {
		case it.N == 0:
			charge = it.End.Sub(it.Start)
			out[i] = it.End
		case charge > 0:
			out[i] = it.Start.Add(charge)
		}
	}
	return out
}

const (
	waiterNode = 0
	peerNear   = 1 // same leaf, same shard
	peerFar    = 5 // other leaf; other shard when sharded
	voidNode   = 6 // hosts no endpoint the waiter can reach
	deadNode   = 7 // link down for the whole run
)

func genIdlePlan(seed int64, shards int) idlePlan {
	r := rand.New(rand.NewSource(seed))
	ticks := []sim.Duration{5 * sim.Microsecond, 20 * sim.Microsecond, sim.Microsecond, 137, 500 * sim.Microsecond,
		sim.Duration(1 + r.Intn(30000))}
	pl := idlePlan{
		shards: shards,
		tick:   ticks[r.Intn(len(ticks))],
		shared: r.Intn(3) == 0,
		frames: []int{1, 1, 8}[r.Intn(3)],
		warm:   r.Intn(2) == 0,
		t0:     sim.Time(300*sim.Microsecond) + sim.Time(r.Intn(100000)),
	}
	span := sim.Duration(200+r.Intn(1800)) * sim.Microsecond
	if pl.tick >= 100*sim.Microsecond {
		span *= 8
	}
	for i, n := 0, r.Intn(9); i < n; i++ {
		s := idleSend{from: peerNear, at: pl.t0.Add(sim.Duration(r.Int63n(int64(span)))), reply: r.Intn(2) == 0, aim: r.Intn(numAims)}
		if r.Intn(3) == 0 {
			s.from = peerFar
		}
		pl.sends = append(pl.sends, s)
		if r.Intn(4) == 0 {
			// A second peer fires at the same instant.
			pl.sends = append(pl.sends, idleSend{from: peerNear + peerFar - s.from, at: s.at})
		}
	}
	sort.SliceStable(pl.sends, func(i, j int) bool { return pl.sends[i].at < pl.sends[j].at })
	switch r.Intn(4) {
	case 0:
		pl.bogus = 1 + r.Intn(4)
	case 1:
		pl.bogus = 33 + r.Intn(12) // more than the reply queue holds
	}
	if r.Intn(3) == 0 {
		pl.dead = 1 + r.Intn(3)
	}
	for i, n := 0, r.Intn(3); i < n; i++ {
		pl.hogAt = append(pl.hogAt, pl.t0.Add(sim.Duration(r.Int63n(int64(span)))))
	}
	switch r.Intn(8) {
	case 0:
		pl.freezeAt = pl.t0.Add(sim.Duration(r.Int63n(int64(span))))
	case 1:
		pl.closeAt = pl.t0.Add(sim.Duration(r.Int63n(int64(span))))
	case 2:
		pl.modeAt = pl.t0.Add(sim.Duration(r.Int63n(int64(span))))
	}
	switch r.Intn(6) {
	case 0:
		pl.until = pl.t0 - sim.Time(r.Intn(1000)) // already past
	case 1:
		pl.until = pl.t0 // the first poll is the last
	case 2:
		// On the lattice an undisturbed non-resident exclusive waiter walks.
		k := sim.Duration(1 + r.Intn(40))
		pl.until = pl.t0.Add(k * (pl.tick + nic.PollHost))
	default:
		pl.until = pl.t0.Add(span + sim.Duration(r.Intn(100000)))
	}
	pl.end = pl.until.Add(4*pl.tick + 6*sim.Millisecond)
	if pl.end < pl.t0.Add(span+6*sim.Millisecond) {
		pl.end = pl.t0.Add(span + 6*sim.Millisecond)
	}
	// Half the plans wait backed off instead: toward the near or far peer
	// (answered at its next 50 µs poll), nothing (prompt returns) or the dead
	// host (late returns, past the 153.6 µs tick).
	if r.Intn(2) == 0 {
		pl.wait = waitCredit + r.Intn(numWaits-waitCredit)
		pl.target = []int{0, 1, 2, 4}[r.Intn(4)]
		pl.extra = 1 + r.Intn(4)
		if pl.frames == 1 {
			// Evict the waiter while its first wait's tick still doubles.
			pl.hogAt = append(pl.hogAt, pl.t0.Add(sim.Duration(r.Int63n(int64(150*sim.Microsecond)))))
			sort.Slice(pl.hogAt, func(i, j int) bool { return pl.hogAt[i] < pl.hogAt[j] })
		}
		if r.Intn(2) == 0 {
			every := 5*sim.Microsecond + sim.Duration(r.Int63n(int64(100*sim.Microsecond)))
			for at := pl.t0.Add(sim.Duration(r.Int63n(int64(every)))); at < pl.t0.Add(span); at = at.Add(every) {
				pl.siblingAt = append(pl.siblingAt, at)
			}
		}
	}
	return pl
}

// runIdlePlan plays pl with the waiter polling through poll and returns what
// happened.
func runIdlePlan(t *testing.T, pl idlePlan, literal bool) idleTrace {
	t.Helper()
	cfg := hostos.DefaultClusterConfig()
	cfg.NIC.Frames = pl.frames
	// Returns from the dead host must land inside the run.
	cfg.NIC.RetransBase = 100 * sim.Microsecond
	cfg.NIC.RetransMax = 400 * sim.Microsecond
	cfg.NIC.ReturnToSenderAfter = sim.Duration(pl.t0) + 700*sim.Microsecond
	c := hostos.NewShardedCluster(1, 10, pl.shards, cfg)
	defer c.Shutdown()
	c.NetFor(deadNode).SetHostLinkDown(deadNode, true)

	var tr idleTrace
	wb := Attach(c.Nodes[waiterNode])
	w, err := wb.NewEndpoint(10, 8)
	if err != nil {
		t.Fatal(err)
	}
	if pl.shared {
		w.SetMode(Shared)
	}
	mkPeer := func(node int, key Key) *Endpoint {
		ep, err := Attach(c.Nodes[node]).NewEndpoint(key, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := ep.Map(0, w.Name(), 10); err != nil {
			t.Fatal(err)
		}
		return ep
	}
	peers := map[int]*Endpoint{peerNear: mkPeer(peerNear, 21), peerFar: mkPeer(peerFar, 25)}
	w.Map(0, peers[peerNear].Name(), 21)
	w.Map(1, peers[peerFar].Name(), 25)
	// Two translations to nothing (two credit windows' worth of returns) and
	// one to the dead host.
	w.Map(2, EndpointName{node: voidNode, ep: 6_999_001}, 1)
	w.Map(3, EndpointName{node: voidNode, ep: 6_999_002}, 1)
	w.Map(4, EndpointName{node: deadNode, ep: 7_999_001}, 1)

	w.SetHandler(1, func(p *sim.Proc, tok *Token, a [4]uint64, _ []byte) {
		tr.Pops = append(tr.Pops, idlePop{At: p.Now(), ID: a[0]})
		if a[1] != 0 {
			tok.Reply(p, 2, a)
		}
	})
	// answered counts the peers' answers to the backed-off waits' requests
	// and every return: what a waitReplies round waits for. Every other
	// answer's handler runs on past the change, so a thread dispatching it
	// can be caught at a top in between.
	answered := 0
	w.SetHandler(5, func(p *sim.Proc, _ *Token, a [4]uint64, _ []byte) {
		tr.Pops = append(tr.Pops, idlePop{At: p.Now(), ID: a[0]})
		answered++
		if a[0]%2 == 1 {
			c.Nodes[waiterNode].Compute(p, 20*sim.Microsecond)
		}
	})
	w.SetReturnHandler(func(p *sim.Proc, _ nic.NackReason, _, _ int, a [4]uint64, _ []byte) {
		tr.Pops = append(tr.Pops, idlePop{At: p.Now(), ID: a[0], Return: true})
		answered++
	})
	// Observe deposits by wrapping the doorbell the endpoint installed.
	img := w.Segment().EP
	bell := img.OnDeliver
	if pl.unhookFor == "deposit" {
		bell = nil
	}
	img.OnDeliver = func(m *nic.RecvMsg) {
		tr.Deposit = append(tr.Deposit, c.Nodes[waiterNode].E.Now())
		tr.Visible = append(tr.Visible, m.Visible)
		if bell != nil && !(pl.unhookFor == "return" && m.IsReturn) {
			bell(m)
		}
	}
	space := img.OnSendSpace
	if pl.unhookFor == "sendspace" {
		space = nil
	}
	img.OnSendSpace = func() {
		tr.Space = append(tr.Space, c.Nodes[waiterNode].E.Now())
		if space != nil {
			space()
		}
	}
	switch pl.unhookFor {
	case "residency":
		w.Segment().OnResidency = nil
	}

	c.Nodes[waiterNode].Spawn("waiter", func(p *sim.Proc) {
		if pl.warm {
			w.Request(p, 0, 3, [4]uint64{})
		}
		id := uint64(1 << 32)
		for i := 0; i < pl.bogus; i++ {
			id++
			w.Request(p, 2+i/32, 1, [4]uint64{id})
		}
		for i := 0; i < pl.dead; i++ {
			id++
			w.Request(p, 4, 1, [4]uint64{id})
		}
		if p.Now() < pl.t0 {
			p.Sleep(pl.t0.Sub(p.Now()))
		}
		if pl.wait != waitIdle {
			runBackoffWaits(p, w, pl, literal, &tr, &id, &answered)
			tr.End = p.Now()
			return
		}
		for {
			var n int
			var start sim.Time
			if literal {
				n, start = literalIdlePoll(w, p, pl.tick, pl.until, &tr.lattice)
			} else {
				n, start = w.IdlePoll(p, pl.tick, pl.until)
			}
			tr.Rets = append(tr.Rets, idleRet{N: n, Start: start, Now: p.Now()})
			if start >= pl.until {
				break
			}
		}
		tr.End = p.Now()
	})

	for _, node := range []int{peerNear, peerFar} {
		node, ep := node, peers[node]
		ep.SetHandler(2, func(*sim.Proc, *Token, [4]uint64, []byte) {})
		ep.SetHandler(3, func(*sim.Proc, *Token, [4]uint64, []byte) {})
		ep.SetHandler(4, func(p *sim.Proc, tok *Token, a [4]uint64, _ []byte) { tok.Reply(p, 5, a) })
		c.Nodes[node].Spawn("peer", func(p *sim.Proc) {
			for i, s := range pl.sends {
				if s.from != node {
					continue
				}
				if s.at > p.Now() {
					p.Sleep(s.at.Sub(p.Now()))
				}
				var rep uint64
				if s.reply {
					rep = 1
				}
				ep.Request(p, 0, 1, [4]uint64{uint64(i + 1), rep})
				ep.Poll(p)
			}
			for {
				ep.Poll(p)
				p.Sleep(50 * sim.Microsecond)
			}
		})
	}

	if len(pl.hogAt) > 0 {
		hog, err := Attach(c.Nodes[waiterNode]).NewEndpoint(11, 2)
		if err != nil {
			t.Fatal(err)
		}
		hog.Map(0, peers[peerNear].Name(), 21)
		c.Nodes[waiterNode].Spawn("hog", func(p *sim.Proc) {
			for _, at := range pl.hogAt {
				if at > p.Now() {
					p.Sleep(at.Sub(p.Now()))
				}
				hog.Request(p, 0, 3, [4]uint64{})
			}
		})
	}
	meddle := func(at sim.Time, fn func(p *sim.Proc)) {
		if at != 0 {
			c.Nodes[waiterNode].Spawn("meddler", func(p *sim.Proc) {
				p.Sleep(at.Sub(p.Now()))
				fn(p)
			})
		}
	}
	meddle(pl.freezeAt, func(p *sim.Proc) {
		if pl.unhookFor == "freeze" {
			w.moved = true // Freeze without its rephase
			return
		}
		w.Freeze(p)
	})
	meddle(pl.closeAt, wb.Close)
	if len(pl.siblingAt) > 0 {
		// Its dispatches change what the waiter tests: answers, credits.
		c.Nodes[waiterNode].Spawn("sibling", func(p *sim.Proc) {
			for _, at := range pl.siblingAt {
				if at > p.Now() {
					p.Sleep(at.Sub(p.Now()))
				}
				w.Poll(p)
			}
		})
	}
	meddle(pl.modeAt, func(*sim.Proc) { w.SetMode(Shared - w.mode) })

	c.RunUntil(pl.end)
	tr.stats = c.EngineStats()
	return tr
}

// runBackoffWaits is the waiter of a plan that waits backed off: the loops
// around PollBackoff the library runs — the credit wait in Request, a
// splitc-style wait for answers, the wait for send-queue space in post — on
// the literal loop or on PollBackoff, logging how each wait ended.
func runBackoffWaits(p *sim.Proc, w *Endpoint, pl idlePlan, literal bool, tr *idleTrace, id *uint64, answered *int) {
	waits := 0
	// wait runs one wait until exit holds or the endpoint is frozen, and
	// logs how it ended.
	wait := func(base, cap sim.Duration, exit func() bool) error {
		waits++
		b := Backoff{Base: base, Cap: cap}
		var err error
		for !exit() {
			if w.moved {
				err = ErrMoved
				break
			}
			if literal {
				literalPollBackoff(w, p, &b, &tr.lattice, waits)
			} else {
				w.PollBackoff(p, &b)
			}
		}
		r := idleRet{Now: p.Now(), Tick: b.tick}
		if err != nil {
			r.Err = err.Error()
		}
		tr.Rets = append(tr.Rets, r)
		return err
	}
	send := func(idx int) error {
		*id++
		return w.Request(p, idx, 4, [4]uint64{*id, 1})
	}
	idx := pl.target
	switch pl.wait {
	case waitCredit:
		for stalls := 0; stalls < pl.extra; {
			if w.Credits(idx) == 0 {
				stalls++
				if wait(nic.PollHost, stallPollCap, func() bool { return w.Credits(idx) != 0 }) != nil {
					return
				}
			}
			if send(idx) != nil {
				return
			}
		}
	case waitReplies:
		for round := 0; round < 3; round++ {
			want := *answered
			for i := 0; i < pl.extra && w.Credits(idx) > 0; i++ {
				if send(idx) != nil {
					return
				}
				want++
			}
			if wait(sim.Microsecond, 50*sim.Microsecond, func() bool { return *answered >= want }) != nil {
				return
			}
		}
	case waitSendQ:
		// The dead host's head blocks the queue once its channels are taken;
		// everything behind it piles up.
		sq := &w.Segment().EP.SendQ
		full := func() bool { return sq.Len() >= nic.SendQDepth }
		for _, idx := range []int{4, 0, 1} {
			for !full() && w.Credits(idx) > 0 {
				if send(idx) != nil {
					return
				}
			}
		}
		if !full() {
			return
		}
		if pl.sqDelay > 0 {
			p.Sleep(pl.sqDelay)
		}
		tr.sqFrom = p.Now()
		if wait(nic.PollHost, stallPollCap, func() bool { return !full() }) != nil {
			return
		}
		send(2)
	}
}

// aimIdlePlan uses a literal probe run to shift each aimed send onto its
// chosen lattice point. Every aim keeps the message's pop instant, so the
// lattice after it — and with it every other aim — stays where the probe saw
// it (as long as the network delay does not depend on when a message is sent,
// which holds while messages do not queue behind one another).
func aimIdlePlan(t *testing.T, pl idlePlan) idlePlan {
	probe := runIdlePlan(t, pl, true)
	out := pl
	out.sends = append([]idleSend(nil), pl.sends...)
	lat, pops := probe.lattice, popInstants(probe.lattice)
	for _, pop := range probe.Pops {
		if pop.Return || pop.ID == 0 || pop.ID > uint64(len(pl.sends)) {
			continue
		}
		s := &out.sends[pop.ID-1]
		if s.aim == aimNone {
			continue
		}
		// The iteration that popped it, and the one before.
		k := -1
		for i, it := range lat {
			if it.N > 0 && it.Start < pop.At && pop.At <= it.End {
				k = i
			}
		}
		if k < 1 || pops[k] == 0 || lat[k-1].N != 0 || lat[k-1].Wait != lat[k].Wait {
			continue
		}
		// Its deposit: the only one that became visible since the last pop
		// instant (skip when messages crowd).
		var vis, dep sim.Time
		hits := 0
		for i, v := range probe.Visible {
			if v <= pops[k] && v > pops[k-1] {
				vis, dep = v, probe.Deposit[i]
				hits++
			}
		}
		if hits != 1 {
			continue
		}
		top, popAt, prevPop := lat[k].Start, pops[k], pops[k-1]
		var shift sim.Duration
		switch s.aim {
		case aimPop:
			shift = popAt.Sub(vis)
		case aimPopLess1:
			shift = popAt.Sub(vis) - 1
		case aimCharge:
			shift = top.Sub(vis) + popAt.Sub(top)/2
		case aimTop:
			shift = top.Sub(vis)
		case aimDeposit:
			// Deposit on the previous pop instant; still visible by this one?
			// The deposit event itself lands on the previous pop instant.
			shift = prevPop.Sub(dep)
			if vis.Add(shift) > popAt {
				continue
			}
		}
		if vis.Add(shift) <= prevPop || s.at.Add(shift) < pl.t0 {
			continue
		}
		s.at = s.at.Add(shift)
	}
	// A backed-off wait's freeze lands inside the poll charge of a turn whose
	// pop would have found something.
	if pl.wait != waitIdle && pl.freezeAt != 0 {
		for i, it := range lat {
			if i > 0 && it.Wait != 0 && it.N > 0 && lat[i-1].Wait == it.Wait && lat[i-1].N == 0 {
				out.freezeAt = it.Start + 1
				break
			}
		}
	}
	// Put one of the send-queue wait's tops on the instant the NI frees the
	// queue, by starting the wait later.
	if pl.wait == waitSendQ && probe.sqFrom != 0 {
		for _, space := range probe.Space {
			if space <= probe.sqFrom {
				continue
			}
			var top sim.Time
			for _, it := range lat {
				if it.Wait == 1 && it.Start > probe.sqFrom && it.Start <= space {
					top = it.Start
				}
			}
			if top != 0 {
				out.sqDelay += space.Sub(top)
			}
			break
		}
	}
	return out
}

// compareIdle plays pl through the literal loop and through IdlePoll or
// PollBackoff and describes the first thing they disagree on ("" when they
// agree).
func compareIdle(t *testing.T, seed int64, pl idlePlan, cover *idleCoverage) string {
	t.Helper()
	lit := runIdlePlan(t, pl, true)
	eli := runIdlePlan(t, pl, false)
	cover.note(pl, lit)
	tag := fmt.Sprintf("seed %d shards %d (wait %d target %d extra %d sqDelay %d sibling polls %d tick %v shared %v frames %d warm %v bogus %d dead %d hog %v freeze %v close %v mode %v t0 %d until %d)",
		seed, pl.shards, pl.wait, pl.target, pl.extra, pl.sqDelay, len(pl.siblingAt), pl.tick, pl.shared, pl.frames, pl.warm, pl.bogus, pl.dead, pl.hogAt, pl.freezeAt, pl.closeAt, pl.modeAt, pl.t0, pl.until)
	if !reflect.DeepEqual(lit.Pops, eli.Pops) {
		return fmt.Sprintf("%s: pop sequence differs\nliteral %v\nelided  %v", tag, lit.Pops, eli.Pops)
	}
	if !reflect.DeepEqual(lit.Rets, eli.Rets) {
		return fmt.Sprintf("%s: waits end differently\nliteral %v\nelided  %v", tag, lit.Rets, eli.Rets)
	}
	if lit.End != eli.End {
		return fmt.Sprintf("%s: final virtual time %d, literal %d", tag, eli.End, lit.End)
	}
	if !reflect.DeepEqual(lit.Visible, eli.Visible) || !reflect.DeepEqual(lit.Deposit, eli.Deposit) ||
		!reflect.DeepEqual(lit.Space, eli.Space) {
		return fmt.Sprintf("%s: the rest of the world diverged (deposit or send-space times differ)", tag)
	}
	ls, es := lit.stats, eli.stats
	if pl.wait == waitIdle {
		empty := len(lit.lattice) - len(lit.Rets)
		if es.Fired > ls.Fired || (empty >= 8 && es.Fired >= ls.Fired) {
			return fmt.Sprintf("%s: elided run fired %d events, literal %d (%d empty polls)", tag, es.Fired, ls.Fired, empty)
		}
		return ""
	}
	// A backed-off wait keeps every event where it was and hands the proc
	// control less often.
	empty := 0
	for _, it := range lit.lattice {
		if it.N == 0 {
			empty++
		}
	}
	if es.Fired != ls.Fired || es.Scheduled != ls.Scheduled || es.Cancelled != ls.Cancelled || es.MaxPending != ls.MaxPending {
		return fmt.Sprintf("%s: the event schedule moved: fired %d scheduled %d cancelled %d max pending %d, literal %d %d %d %d",
			tag, es.Fired, es.Scheduled, es.Cancelled, es.MaxPending, ls.Fired, ls.Scheduled, ls.Cancelled, ls.MaxPending)
	}
	// (A second thread's dispatches can bring the parked proc back at every
	// top, which saves nothing.)
	if es.Handoffs > ls.Handoffs || (empty >= 4 && len(pl.siblingAt) == 0 && es.Handoffs >= ls.Handoffs) {
		return fmt.Sprintf("%s: PollBackoff handed off %d times, literal %d (%d empty turns)", tag, es.Handoffs, ls.Handoffs, empty)
	}
	return ""
}

// idleCoverage checks that the sweep actually reached the corners it claims.
type idleCoverage struct {
	visAtPop, visInCharge, visAtTop, depAtPop int
	returns, spill, load, evict               int
	untilOnLattice, untilPast                 int
	freeze, close, shared, sameInstant        int
	// Backed-off waits: a pop that ends a wait while its tick still doubles,
	// or once it has overshot the cap (153.6 µs under 100 µs); a residency
	// change between two empty turns while the tick still doubles; a wait
	// ended by a freeze; send space landing exactly on a top; a second
	// thread dispatching during a parked wait.
	wakeDoubling, wakeOvershoot, flipDoubling, freezeWait, spaceOnTop, sibling int
}

func (cv *idleCoverage) note(pl idlePlan, lit idleTrace) {
	pop := map[sim.Time]bool{}
	top := map[sim.Time]bool{}
	pops := popInstants(lit.lattice)
	for i, it := range lit.lattice {
		top[it.Start] = true
		if pops[i] != 0 {
			pop[pops[i]] = true
		}
		if it.Start == pl.until {
			cv.untilOnLattice++
		}
	}
	for i, v := range lit.Visible {
		if pop[v] {
			cv.visAtPop++
		}
		if top[v] {
			cv.visAtTop++
		}
		if pop[lit.Deposit[i]] {
			cv.depAtPop++
		}
		for k, it := range lit.lattice {
			if it.Start < v && v < pops[k] {
				cv.visInCharge++
			}
		}
	}
	rets := 0
	for _, p := range lit.Pops {
		if p.Return {
			rets++
		}
	}
	for _, r := range lit.Rets {
		if r.N > 1 {
			cv.sameInstant++
		}
	}
	cv.returns += rets
	if rets > nic.DefaultConfig().RecvQDepth {
		cv.spill++
	}
	// Between empty polls of an exclusive endpoint, a poll charge that
	// changes is a residency transition.
	var last sim.Duration
	for _, it := range lit.lattice {
		if it.N != 0 || pl.shared || pl.modeAt != 0 {
			continue
		}
		c := it.End.Sub(it.Start)
		if last > 0 && c > last {
			cv.load++
		}
		if c > 0 && c < last {
			cv.evict++
		}
		last = c
	}
	if pl.until < pl.t0 {
		cv.untilPast++
	}
	if pl.freezeAt != 0 && pl.freezeAt < lit.End {
		cv.freeze++
	}
	if pl.closeAt != 0 && pl.closeAt < lit.End {
		cv.close++
	}
	if pl.shared {
		cv.shared++
	}
	cap := stallPollCap
	if pl.wait == waitReplies {
		cap = 50 * sim.Microsecond
	}
	// Turn i of a backed-off wait, after an empty one.
	for i := 1; i < len(lit.lattice); i++ {
		it, prev := lit.lattice[i], lit.lattice[i-1]
		if it.Wait == 0 || prev.Wait != it.Wait || prev.N != 0 {
			continue
		}
		switch {
		case it.N > 0 && it.Tick < cap && i >= 2 && lit.lattice[i-2].Wait == it.Wait && lit.lattice[i-2].N == 0:
			cv.wakeDoubling++
		case it.N > 0 && it.Tick == 153600:
			cv.wakeOvershoot++
		case it.N == 0 && it.Tick < cap && !pl.shared && pl.modeAt == 0 && it.End.Sub(it.Start) != prev.End.Sub(prev.Start):
			cv.flipDoubling++
		}
	}
	for _, r := range lit.Rets {
		if r.Err == ErrMoved.Error() {
			cv.freezeWait++
		}
	}
	for _, at := range pl.siblingAt {
		for i, it := range lit.lattice {
			if i+1 < len(lit.lattice) && it.Wait != 0 && lit.lattice[i+1].Wait == it.Wait && it.End < at && at < lit.lattice[i+1].Start {
				cv.sibling++
			}
		}
	}
	for _, x := range lit.Space {
		for _, it := range lit.lattice {
			if it.Wait != 0 && it.Start == x {
				cv.spaceOnTop++
			}
		}
	}
}

// sweepIdle compares the two over seeds 1..seeds, stopping at the first
// disagreement.
func sweepIdle(t *testing.T, shards, seeds int, unhook string) (*idleCoverage, string) {
	cv := &idleCoverage{}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		pl := genIdlePlan(seed, shards)
		pl.unhookFor = unhook
		if diff := compareIdle(t, seed, aimIdlePlan(t, pl), cv); diff != "" {
			return cv, diff
		}
	}
	return cv, ""
}

// TestIdlePollMatchesLiteralLoop is the property the whole optimisation rests
// on: over seeded schedules of arrivals, returns, residency transitions,
// freezes, closes, mode flips and bounds, IdlePoll and the backed-off waits
// on PollBackoff produce the same pops at the same virtual times as their
// literal definitions, end at the same instants with the same ticks, and
// leave the rest of the simulated world identical — while IdlePoll fires
// strictly fewer engine events, and PollBackoff fires exactly the same ones
// and hands its proc control strictly less often.
func TestIdlePollMatchesLiteralLoop(t *testing.T) {
	seeds := 480
	if testing.Short() {
		seeds = 120
	}
	for _, shards := range []int{1, 2} {
		cv, diff := sweepIdle(t, shards, seeds, "")
		if diff != "" {
			t.Fatal(diff)
		}
		t.Logf("shards %d coverage: %+v", shards, *cv)
		if testing.Short() {
			continue
		}
		for name, n := range map[string]int{
			"Visible on a pop instant": cv.visAtPop, "Visible inside the poll charge": cv.visInCharge,
			"Visible on an iteration start": cv.visAtTop, "deposit on a pop instant": cv.depAtPop,
			"returns": cv.returns, "return spill": cv.spill, "load mid-wait": cv.load, "eviction mid-wait": cv.evict,
			"until on the lattice": cv.untilOnLattice, "until in the past": cv.untilPast,
			"freeze mid-wait": cv.freeze, "close mid-wait": cv.close, "shared mode": cv.shared,
			"several pops at one instant": cv.sameInstant, "send space on a top": cv.spaceOnTop,
			"a backed-off wake while the tick doubles": cv.wakeDoubling, "a backed-off wake at 153.6µs": cv.wakeOvershoot,
			"a residency change while the tick doubles": cv.flipDoubling, "a backed-off wait ended by a freeze": cv.freezeWait,
			"a second thread polling during a backed-off wait": cv.sibling,
		} {
			if n == 0 {
				t.Errorf("shards %d: the sweep never exercised: %s", shards, name)
			}
		}
	}
}

// TestIdlePollOracleSeesEveryWakeSource is the test of the test: with any one
// wake source disconnected — the deposit doorbell, the doorbell for returns
// only, the residency notification, Freeze's rephase, the send-space doorbell
// — the oracle sweep must find a schedule on which IdlePoll or PollBackoff
// and the literal loop part ways. (The until wakeup is not a hook that can be
// left out: without it IdlePoll never returns.)
func TestIdlePollOracleSeesEveryWakeSource(t *testing.T) {
	for _, unhook := range []string{"deposit", "return", "residency", "freeze", "sendspace"} {
		if _, diff := sweepIdle(t, 1, 120, unhook); diff == "" {
			t.Errorf("the oracle sweep passes with the %s wake source disconnected", unhook)
		}
	}
}

// TestIdlePollAllocFree pins the park → doorbell → resume cycle at zero
// allocations: the doorbell closure exists once per endpoint and the wakeup
// reuses the proc's timer.
func TestIdlePollAllocFree(t *testing.T) {
	c := newCluster(t, 2, nil)
	e0, e1 := pair(t, c)
	got := 0
	e0.SetHandler(1, func(*sim.Proc, *Token, [4]uint64, []byte) { got++ })
	e1.SetHandler(2, func(*sim.Proc, *Token, [4]uint64, []byte) {})
	img := e0.Segment().EP
	// One pre-built message deposited over and over: the cycle under test is
	// the park, the doorbell and the resume, not the NI's descriptor pool.
	msg := &nic.RecvMsg{SrcNI: netsim.NodeID(1), SrcEP: e1.Segment().EP.ID, Handler: 1}
	ring := func() {
		msg.Visible = c.Now().Add(2400)
		img.RecvQ.Push(msg)
		img.OnDeliver(msg)
	}
	c.Nodes[0].Spawn("waiter", func(p *sim.Proc) {
		for {
			e0.IdlePoll(p, 5*sim.Microsecond, sim.Never)
		}
	})
	c.RunFor(sim.Millisecond) // warm: the proc is parked, pools are filled
	cycle := func() {
		ring()
		c.RunFor(100 * sim.Microsecond)
	}
	cycle()
	before := got
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("park → doorbell → resume allocates %.2f times per cycle, want 0", avg)
	}
	if got-before != 201 {
		t.Fatalf("dispatched %d messages in 201 cycles", got-before)
	}
}

// backoffWaits runs a waiter through splitc-style waits for the messages a
// peer sends it, and then a wait that only a newly mapped translation ends.
// The first message waits out a remap of the waiter's endpoint, which lands
// 34 µs into the first wait, while its tick still doubles; two later ones
// arrive 20 µs apart. It logs how each wait
// ended and, on the literal loop, every turn.
func backoffWaits(t *testing.T, literal bool) ([]idleRet, []idleIter, sim.Stats) {
	const base, cap = 300 * sim.Nanosecond, 100 * sim.Microsecond
	c := newCluster(t, 2, nil)
	e0, e1 := pair(t, c)
	got := 0
	e0.SetHandler(1, func(*sim.Proc, *Token, [4]uint64, []byte) { got++ })
	c.Nodes[1].Spawn("peer", func(p *sim.Proc) {
		for _, at := range []sim.Time{50_000, 2_500_000, 2_520_000, 4_000_000} {
			p.Sleep(at.Sub(p.Now()))
			if err := e1.Request(p, 0, 1, [4]uint64{}); err != nil {
				t.Errorf("request: %v", err)
			}
		}
	})
	// A sibling thread maps a translation at 6 ms: a change the waiter's exit
	// test reads that no dispatch makes.
	c.Nodes[0].Spawn("mapper", func(p *sim.Proc) {
		p.Sleep(6 * sim.Millisecond)
		e0.Map(1, e1.Name(), 20)
	})
	var rets []idleRet
	var turns []idleIter
	c.Nodes[0].Spawn("waiter", func(p *sim.Proc) {
		p.Sleep(1_560_000)
		for i := 0; i < 4; i++ {
			want := got + 1
			b := Backoff{Base: base, Cap: cap}
			for got < want && !e0.TranslationValid(1) {
				if literal {
					literalPollBackoff(e0, p, &b, &turns, i+1)
				} else {
					e0.PollBackoff(p, &b)
				}
			}
			rets = append(rets, idleRet{N: got, Now: p.Now(), Tick: b.tick})
		}
	})
	c.RunFor(10 * sim.Millisecond)
	return rets, turns, c.EngineStats()
}

// PollBackoff runs whole waits exactly as its literal loop does, quirks
// included: the tick is tested against the cap before it doubles, so 300 ns
// backs off to 153.6 µs under a 100 µs cap and stays there, and a turn that
// dispatches starts it over at Base. The events are the loop's own; only the
// hand-offs go.
func TestPollBackoffIsItsLiteralLoop(t *testing.T) {
	lit, turns, ls := backoffWaits(t, true)
	got, _, gs := backoffWaits(t, false)
	if len(lit) != 4 || !reflect.DeepEqual(lit, got) {
		t.Fatalf("waits end differently:\nliteral %v\nbackoff %v", lit, got)
	}
	if gs.Fired != ls.Fired || gs.Scheduled != ls.Scheduled || gs.Handoffs >= ls.Handoffs {
		t.Fatalf("PollBackoff fired %d, scheduled %d, handed off %d; the literal loop %d, %d, %d",
			gs.Fired, gs.Scheduled, gs.Handoffs, ls.Fired, ls.Scheduled, ls.Handoffs)
	}
	for i, n := range []int{1, 3, 4} {
		if r := got[i]; r.N != n || r.Tick != 300*sim.Nanosecond {
			t.Errorf("wait %d ended with %d dispatched and tick %v, want %d and Base: a dispatch restarts the tick", i+1, r.N, r.Tick, n)
		}
	}
	// The last wait ends at a top, with the tick where the backing off left it.
	if r := got[3]; r.N != 4 || r.Tick != 153600*sim.Nanosecond {
		t.Errorf("the mapping wait ended with %d dispatched and tick %v, want 4 and the 153.6µs overshoot", r.N, r.Tick)
	}
	// Turn by turn (the literal log): the tick doubles from Base up to the
	// first value not below the cap, then holds; and the remap changed the
	// poll charge between two turns that found nothing while it doubled.
	held, flipped := 0, false
	for i := 1; i < len(turns); i++ {
		prev, it := turns[i-1], turns[i]
		if it.Wait != prev.Wait {
			if it.Tick != 300*sim.Nanosecond {
				t.Fatalf("wait %d began with tick %v, want Base", it.Wait, it.Tick)
			}
			continue
		}
		want := 2 * prev.Tick
		if prev.Tick >= 100*sim.Microsecond {
			want = prev.Tick
			held++
		}
		if it.Tick != want {
			t.Fatalf("turn %d: tick %v after %v", i, it.Tick, prev.Tick)
		}
		if it.N == 0 && it.Tick < 100*sim.Microsecond && it.End.Sub(it.Start) != prev.End.Sub(prev.Start) {
			flipped = true
		}
	}
	if held == 0 {
		t.Fatalf("the tick never backed off to 153.6µs and stayed: %v", turns)
	}
	if !flipped {
		t.Fatalf("no residency change while the tick doubled: %v", turns)
	}
}

// TestPollBackoffAllocFree pins the park → shadow → resume cycle at zero
// allocations: the shadow timer exists once per endpoint and the resume runs
// the proc inside the timer's event.
func TestPollBackoffAllocFree(t *testing.T) {
	c := newCluster(t, 2, nil)
	e0, e1 := pair(t, c)
	got := 0
	e0.SetHandler(1, func(*sim.Proc, *Token, [4]uint64, []byte) { got++ })
	img := e0.Segment().EP
	msg := &nic.RecvMsg{SrcNI: netsim.NodeID(1), SrcEP: e1.Segment().EP.ID, Handler: 1}
	ring := func() {
		msg.Visible = c.Now().Add(2400)
		img.RecvQ.Push(msg)
		img.OnDeliver(msg)
	}
	c.Nodes[0].Spawn("waiter", func(p *sim.Proc) {
		b := Backoff{Base: nic.PollHost, Cap: stallPollCap}
		for {
			e0.PollBackoff(p, &b)
		}
	})
	c.RunFor(sim.Millisecond) // warm: the proc is parked, pools are filled
	cycle := func() {
		ring()
		c.RunFor(100 * sim.Microsecond)
	}
	cycle()
	before := got
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("park → shadow → resume allocates %.2f times per cycle, want 0", avg)
	}
	if got-before != 201 {
		t.Fatalf("dispatched %d messages in 201 cycles", got-before)
	}
}

// TestPollBackoffUnderWaitAbortTicksLiterally pins the fallback: nothing
// rings when a SetWaitAbort predicate flips, so a credit wait on an endpoint
// that has one stops at every top. Flipped by another thread outside any
// dispatch, at instants on and off the wait's tops, the predicate's error
// comes out of Request at the instant the literal loop returns it, after the
// same events.
func TestPollBackoffUnderWaitAbortTicksLiterally(t *testing.T) {
	errAbort := errors.New("aborted")
	run := func(flipAt sim.Time, literal bool) (sim.Time, error, sim.Stats) {
		c := newCluster(t, 2, nil)
		e0, _ := pair(t, c) // the peer never polls: the window stays shut
		flipped := false
		e0.SetWaitAbort(func() error {
			if flipped {
				return errAbort
			}
			return nil
		})
		c.Nodes[0].Spawn("flipper", func(p *sim.Proc) {
			p.Sleep(flipAt.Sub(p.Now()))
			flipped = true
		})
		var at sim.Time
		var err error
		c.Nodes[0].Spawn("waiter", func(p *sim.Proc) {
			for e0.Credits(0) > 0 {
				if err = e0.Request(p, 0, 1, [4]uint64{}); err != nil {
					return
				}
			}
			if !literal {
				err, at = e0.Request(p, 0, 1, [4]uint64{}), p.Now()
				return
			}
			// Request's credit wait, on the literal loop.
			b := Backoff{Base: nic.PollHost, Cap: stallPollCap}
			for e0.Credits(0) == 0 && err == nil {
				if err = e0.waitAbort(); err == nil {
					literalPollBackoff(e0, p, &b, nil, 0)
				}
			}
			at = p.Now()
		})
		c.RunFor(5 * sim.Millisecond)
		return at, err, c.EngineStats()
	}
	for _, flip := range []sim.Time{100_000, 217_500, 1_000_000, 1_234_567} {
		lat, lerr, ls := run(flip, true)
		got, gerr, gs := run(flip, false)
		if lerr != errAbort || gerr != errAbort || got != lat {
			t.Errorf("flip at %v: Request returned %v at %v, the literal loop %v at %v", flip, gerr, got, lerr, lat)
		}
		if gs.Fired != ls.Fired || gs.Scheduled != ls.Scheduled {
			t.Errorf("flip at %v: %d events fired, %d scheduled; literal %d, %d", flip, gs.Fired, gs.Scheduled, ls.Fired, ls.Scheduled)
		}
	}
}

// FuzzPollBackoff checks whole backed-off waits against the literal loop over
// arbitrary ticks — any base, any cap, above or below it — and arrival
// schedules, on an exclusive or shared endpoint, with a translation mapped
// (a change no dispatch makes) and a freeze at fuzzed instants. The waits
// must end at the same instants with the same ticks after the same events.
func FuzzPollBackoff(f *testing.F) {
	f.Add(uint16(300), uint32(100_000), []byte{50, 3, 0, 200}, false, uint32(6_000_000), uint32(0))
	f.Add(uint16(1000), uint32(50_000), []byte{1, 1, 9, 90, 255}, true, uint32(0), uint32(2_345_678))
	f.Add(uint16(137), uint32(100), []byte{7}, false, uint32(777_777), uint32(888_888))
	f.Fuzz(func(t *testing.T, base uint16, cap uint32, gaps []byte, shared bool, mapAt, freezeAt uint32) {
		// Ticks from 100 ns, caps below a millisecond, instants inside the
		// run (0: never).
		base = 100 + base%5000
		cap %= uint32(sim.Millisecond)
		mapAt %= 6_000_000
		freezeAt %= 6_000_000
		if len(gaps) > 16 {
			gaps = gaps[:16]
		}
		run := func(literal bool) ([]idleRet, sim.Stats) {
			c := newCluster(t, 2, nil)
			e0, e1 := pair(t, c)
			if shared {
				e0.SetMode(Shared)
			}
			got := 0
			e0.SetHandler(1, func(*sim.Proc, *Token, [4]uint64, []byte) { got++ })
			c.Nodes[1].Spawn("peer", func(p *sim.Proc) {
				for _, g := range gaps {
					p.Sleep(sim.Duration(g) * 10 * sim.Microsecond)
					e1.Request(p, 0, 1, [4]uint64{})
				}
			})
			at := func(t uint32, fn func(*sim.Proc)) {
				if t > 0 {
					c.Nodes[0].Spawn("meddler", func(p *sim.Proc) { p.Sleep(sim.Duration(t)); fn(p) })
				}
			}
			at(mapAt, func(*sim.Proc) { e0.Map(1, e1.Name(), 20) })
			at(freezeAt, e0.Freeze)
			var rets []idleRet
			c.Nodes[0].Spawn("waiter", func(p *sim.Proc) {
				for range gaps {
					want := got + 1
					b := Backoff{Base: sim.Duration(base), Cap: sim.Duration(cap)}
					for got < want && !e0.TranslationValid(1) && !e0.Moved() {
						if literal {
							literalPollBackoff(e0, p, &b, nil, 0)
						} else {
							e0.PollBackoff(p, &b)
						}
					}
					rets = append(rets, idleRet{N: got, Now: p.Now(), Tick: b.tick})
				}
			})
			c.RunFor(5 * sim.Millisecond)
			return rets, c.EngineStats()
		}
		lit, ls := run(true)
		got, gs := run(false)
		if !reflect.DeepEqual(lit, got) {
			t.Fatalf("waits end differently:\nliteral %v\nbackoff %v", lit, got)
		}
		if gs.Fired != ls.Fired || gs.Scheduled != ls.Scheduled || gs.Cancelled != ls.Cancelled || gs.Handoffs > ls.Handoffs {
			t.Fatalf("PollBackoff fired %d, scheduled %d, cancelled %d, handed off %d; the literal loop %d, %d, %d, %d",
				gs.Fired, gs.Scheduled, gs.Cancelled, gs.Handoffs, ls.Fired, ls.Scheduled, ls.Cancelled, ls.Handoffs)
		}
	})
}
