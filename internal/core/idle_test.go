package core

import (
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
// poll returned, how many messages that poll dispatched.
type idleIter struct {
	Start, End sim.Time
	N          int
}

// The oracle: IdlePoll's definition, executed literally. Kept only here.
// lat, when non-nil, logs every iteration.
func literalIdlePoll(ep *Endpoint, p *sim.Proc, tick sim.Duration, until sim.Time, lat *[]idleIter) (int, sim.Time) {
	for {
		start := p.Now()
		n := ep.Poll(p)
		if lat != nil {
			*lat = append(*lat, idleIter{start, p.Now(), n})
		}
		if n > 0 || start >= until {
			return n, start
		}
		p.Sleep(tick)
	}
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

// idlePlan is one seeded schedule, pure data so the literal and the elided
// runs replay exactly the same world.
type idlePlan struct {
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

type idleRet struct {
	N          int
	Start, Now sim.Time
}

// idleTrace is everything the two runs must agree on (and Fired, on which
// they must not).
type idleTrace struct {
	Pops    []idlePop
	Rets    []idleRet
	End     sim.Time
	Visible []sim.Time // per deposit, in deposit order
	Deposit []sim.Time

	fired   uint64
	lattice []idleIter // literal run only
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
	w.SetReturnHandler(func(p *sim.Proc, _ nic.NackReason, _, _ int, a [4]uint64, _ []byte) {
		tr.Pops = append(tr.Pops, idlePop{At: p.Now(), ID: a[0], Return: true})
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
	meddle(pl.modeAt, func(*sim.Proc) { w.SetMode(Shared - w.mode) })

	c.RunUntil(pl.end)
	tr.fired = c.EngineStats().Fired
	return tr
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
		if k < 1 || pops[k] == 0 || lat[k-1].N != 0 {
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
	return out
}

// compareIdle plays pl through the literal loop and through IdlePoll and
// describes the first thing they disagree on ("" when they agree).
func compareIdle(t *testing.T, seed int64, pl idlePlan, cover *idleCoverage) string {
	t.Helper()
	lit := runIdlePlan(t, pl, true)
	eli := runIdlePlan(t, pl, false)
	cover.note(pl, lit)
	tag := fmt.Sprintf("seed %d shards %d (tick %v shared %v frames %d warm %v bogus %d dead %d hog %v freeze %v close %v mode %v t0 %d until %d)",
		seed, pl.shards, pl.tick, pl.shared, pl.frames, pl.warm, pl.bogus, pl.dead, pl.hogAt, pl.freezeAt, pl.closeAt, pl.modeAt, pl.t0, pl.until)
	if !reflect.DeepEqual(lit.Pops, eli.Pops) {
		return fmt.Sprintf("%s: pop sequence differs\nliteral %v\nelided  %v", tag, lit.Pops, eli.Pops)
	}
	if !reflect.DeepEqual(lit.Rets, eli.Rets) {
		return fmt.Sprintf("%s: IdlePoll returns differ\nliteral %v\nelided  %v", tag, lit.Rets, eli.Rets)
	}
	if lit.End != eli.End {
		return fmt.Sprintf("%s: final virtual time %d, literal %d", tag, eli.End, lit.End)
	}
	if !reflect.DeepEqual(lit.Visible, eli.Visible) {
		return fmt.Sprintf("%s: the rest of the world diverged (deposit times differ)", tag)
	}
	empty := len(lit.lattice) - len(lit.Rets)
	if eli.fired > lit.fired || (empty >= 8 && eli.fired >= lit.fired) {
		return fmt.Sprintf("%s: elided run fired %d events, literal %d (%d empty polls)", tag, eli.fired, lit.fired, empty)
	}
	return ""
}

// idleCoverage checks that the sweep actually reached the corners it claims.
type idleCoverage struct {
	visAtPop, visInCharge, visAtTop, depAtPop int
	returns, spill, load, evict               int
	untilOnLattice, untilPast                 int
	freeze, close, shared, sameInstant        int
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
// freezes, closes, mode flips and bounds, IdlePoll and its literal definition
// produce the same pops at the same virtual times, return the same values at
// the same instants, and leave the rest of the simulated world identical —
// while IdlePoll fires strictly fewer engine events.
func TestIdlePollMatchesLiteralLoop(t *testing.T) {
	seeds := 240
	if testing.Short() {
		seeds = 60
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
			"several pops at one instant": cv.sameInstant,
		} {
			if n == 0 {
				t.Errorf("shards %d: the sweep never exercised: %s", shards, name)
			}
		}
	}
}

// TestIdlePollOracleSeesEveryWakeSource is the test of the test: with any one
// wake source disconnected — the deposit doorbell, the doorbell for returns
// only, the residency notification, Freeze's rephase — the oracle sweep must
// find a schedule on which IdlePoll and the literal loop part ways. (The
// until wakeup is not a hook that can be left out: without it IdlePoll never
// returns.)
func TestIdlePollOracleSeesEveryWakeSource(t *testing.T) {
	for _, unhook := range []string{"deposit", "return", "residency", "freeze"} {
		if _, diff := sweepIdle(t, 1, 60, unhook); diff == "" {
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

// PollBackoff's definition, executed literally. Kept only here.
func literalPollBackoff(ep *Endpoint, p *sim.Proc, base, cap sim.Duration, tick *sim.Duration) int {
	n := ep.Poll(p)
	if n == 0 {
		p.Sleep(*tick)
		if *tick < cap {
			*tick *= 2
		}
	} else {
		*tick = base
	}
	return n
}

// backoffTurns runs a waiter through a fixed number of backed-off turns while
// a peer sends it four messages (the first waits out the waiter's first
// remap), and logs when each turn started and ended and what it dispatched.
func backoffTurns(t *testing.T, literal bool) []idleIter {
	const base, cap = 300 * sim.Nanosecond, 100 * sim.Microsecond
	c := newCluster(t, 2, nil)
	e0, e1 := pair(t, c)
	e0.SetHandler(1, func(p *sim.Proc, tok *Token, args [4]uint64, _ []byte) {})
	c.Nodes[1].Spawn("peer", func(p *sim.Proc) {
		for _, at := range []sim.Time{50_000, 2_500_000, 2_520_000, 4_000_000} {
			p.Sleep(at.Sub(p.Now()))
			if err := e1.Request(p, 0, 1, [4]uint64{}); err != nil {
				t.Errorf("request: %v", err)
			}
		}
	})
	var turns []idleIter
	c.Nodes[0].Spawn("waiter", func(p *sim.Proc) {
		wait, tick := Backoff{Base: base, Cap: cap}, sim.Duration(base)
		for i := 0; i < 70; i++ {
			start, n := p.Now(), 0
			if literal {
				n = literalPollBackoff(e0, p, base, cap, &tick)
			} else {
				n = e0.PollBackoff(p, &wait)
			}
			turns = append(turns, idleIter{start, p.Now(), n})
		}
	})
	c.RunFor(10 * sim.Millisecond)
	return turns
}

// PollBackoff is its literal loop, quirks included: the tick is tested
// against the cap before it doubles, so 300 ns backs off to 153.6 µs under a
// 100 µs cap and stays there, and a turn that dispatches starts it over.
func TestPollBackoffIsItsLiteralLoop(t *testing.T) {
	lit, got := backoffTurns(t, true), backoffTurns(t, false)
	if len(lit) != 70 || !reflect.DeepEqual(lit, got) {
		t.Fatalf("turns differ:\nliteral %v\nbackoff %v", lit, got)
	}
	// An empty turn lasts its poll plus its sleep. The poll costs the same on
	// consecutive turns (residency changes only around a dispatch), so it
	// cancels out of the difference between two of them.
	last := func(i int) sim.Duration { return got[i].End.Sub(got[i].Start) }
	dispatched, overshot := 0, false
	for i := 0; i+2 < len(got); i++ {
		dispatched += got[i].N
		if got[i+1].N > 0 || got[i+2].N > 0 {
			continue
		}
		grew, held := last(i+2)-last(i+1), last(i+2) == last(i+1)
		switch {
		case got[i].N > 0 && grew != 300*sim.Nanosecond:
			t.Errorf("turns after a dispatch last %v then %v: the tick did not restart at Base", last(i+1), last(i+2))
		case got[i].N == 0 && last(i+1)-last(i) == 76800*sim.Nanosecond:
			// 76.8 µs is below the cap, so it doubled once more; 153.6 µs is not.
			overshot = held
		}
	}
	if dispatched != 4 {
		t.Fatalf("dispatched %d of 4 messages", dispatched)
	}
	if !overshot {
		t.Fatalf("the tick never backed off to 153.6µs and stayed: %v", got)
	}
}
