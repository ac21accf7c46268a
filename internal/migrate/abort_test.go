package migrate

import (
	"errors"
	"testing"

	"virtnet/internal/core"
	"virtnet/internal/nic"
	"virtnet/internal/sim"
)

// TestMoveAbortsWhenDestinationCrashes crashes the destination node while a
// Move is in flight — once while the source is still draining the frozen
// endpoint, once after the first of the state transfer's two chunks was
// installed — and requires the abort path end to end: Move reports
// ErrDestUnreachable, the source driver withdraws the quiesced image
// (migrate.abort), the endpoint is reinstalled on the source under its
// original id, the directory and the managed handle point there, and a
// peer's requests sent before, during and after the move are each delivered
// exactly once. Returned requests (the endpoint is unreachable for longer
// than ReturnToSenderAfter while the source waits out the commit timeout)
// are re-issued by the peer, as an application would.
//
// Both crashes land in Move's commit-timeout branch: a returned chunk hands
// its credit back, so RequestBulk to a dead destination does not fail and
// the send-error branch is not reachable from a destination crash.
func TestMoveAbortsWhenDestinationCrashes(t *testing.T) {
	for _, tc := range []struct {
		name string
		arm  func(t *testing.T, svc *Service, server *core.Endpoint, crash func())
	}{
		{"while-draining", func(t *testing.T, svc *Service, server *core.Endpoint, crash func()) {
			svc.c.Nodes[1].Spawn("crasher", func(p *sim.Proc) {
				for !server.Moved() {
					p.Sleep(sim.Microsecond)
				}
				crash()
			})
		}},
		{"mid-transfer", func(t *testing.T, svc *Service, server *core.Endpoint, crash func()) {
			dst := svc.mgrs[2]
			dst.agent.SetHandler(hChunk, func(p *sim.Proc, tok *core.Token, args [4]uint64, payload []byte) {
				dst.onChunk(p, tok, args, payload)
				if x := svc.xfers[args[0]]; x != nil && x.got == 1 {
					if x.chunks < 2 {
						t.Errorf("state transfer is %d chunk(s); mid-transfer needs two", x.chunks)
					}
					svc.c.Nodes[2].E.AfterFunc(0, crash)
				}
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 3, nil)
			svc, err := NewService(c)
			if err != nil {
				t.Fatal(err)
			}
			b := core.Attach(c.Nodes[0])
			b.SetResolver(svc.Dir)
			server, err := b.NewEndpoint(41, 8)
			if err != nil {
				t.Fatal(err)
			}
			epID := server.Segment().EP.ID
			delivered := map[uint64]int{}
			server.SetHandler(1, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
				delivered[args[0]]++
				if err := tok.Reply(p, 2, args); err != nil {
					t.Errorf("server reply: %v", err)
				}
			})
			cur, swaps := server, 0
			svc.Manage(server, func(n *core.Endpoint) { cur, swaps = n, swaps+1 })
			c.Nodes[0].Spawn("server", func(p *sim.Proc) {
				for {
					cur.Poll(p)
					p.Sleep(10 * sim.Microsecond)
				}
			})

			// The peer: ids 1..n every 5 ms, re-issuing what comes back.
			cb := core.Attach(c.Nodes[1])
			cb.SetResolver(svc.Dir)
			cli, err := cb.NewEndpoint(1001, 8)
			if err != nil {
				t.Fatal(err)
			}
			const n = 150
			replies, sentAt := map[uint64]int{}, map[uint64]sim.Time{}
			var retry []uint64
			cli.SetHandler(2, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) { replies[args[0]]++ })
			cli.SetReturnHandler(func(p *sim.Proc, _ nic.NackReason, _, _ int, args [4]uint64, _ []byte) {
				retry = append(retry, args[0])
			})
			if err := cli.Map(0, server.Name(), 41); err != nil {
				t.Fatal(err)
			}
			c.Nodes[1].Spawn("client", func(p *sim.Proc) {
				for id := uint64(1); id <= n || len(replies) < n; {
					var err error
					switch {
					case len(retry) > 0:
						err = cli.Request(p, 0, 1, [4]uint64{retry[0]})
						retry = retry[1:]
					case id <= n:
						sentAt[id] = p.Now()
						err = cli.Request(p, 0, 1, [4]uint64{id})
						id++
					}
					if err != nil {
						t.Errorf("client request: %v", err)
						return
					}
					cli.Poll(p)
					p.Sleep(5 * sim.Millisecond)
				}
			})

			var freezeAt, abortAt sim.Time
			var moveErr error
			tc.arm(t, svc, server, func() { c.Nodes[2].Crash() })
			c.Nodes[0].Spawn("mover", func(p *sim.Proc) {
				p.Sleep(20 * sim.Millisecond)
				freezeAt = p.Now()
				_, moveErr = svc.Move(p, server, 2)
				abortAt = p.Now()
			})
			c.RunFor(3 * sim.Second)

			if !errors.Is(moveErr, ErrDestUnreachable) {
				t.Fatalf("Move = %v, want ErrDestUnreachable", moveErr)
			}
			if !c.Nodes[2].Crashed() {
				t.Fatal("the destination never crashed")
			}
			if got := c.Nodes[0].Driver.C.Get("migrate.abort"); got != 1 {
				t.Fatalf("source driver migrate.abort = %d, want 1", got)
			}
			if node, ok := svc.Dir.Resolve(epID); !ok || node != 0 {
				t.Fatalf("directory resolves endpoint %d to node %d (ok=%v), want the source, node 0", epID, node, ok)
			}
			h, ok := svc.Endpoint(epID)
			if !ok || h == server || h != cur || swaps != 1 || h.Moved() || h.Bundle().Node.ID != 0 {
				t.Fatalf("managed handle not swapped to a live reinstall on node 0 (swaps=%d)", swaps)
			}
			if h.Name() != server.Name() {
				t.Fatal("the reinstalled endpoint changed its name")
			}
			var before, during, after int
			for id := uint64(1); id <= n; id++ {
				if replies[id] != 1 || delivered[id] != 1 {
					t.Fatalf("id %d: delivered %d times, %d replies; want exactly once", id, delivered[id], replies[id])
				}
				switch at := sentAt[id]; {
				case at < freezeAt:
					before++
				case at < abortAt:
					during++
				default:
					after++
				}
			}
			if before == 0 || during == 0 || after == 0 {
				t.Fatalf("requests sent before/during/after the move: %d/%d/%d, want some of each", before, during, after)
			}
		})
	}
}
