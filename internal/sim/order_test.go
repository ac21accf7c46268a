package sim

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateOrder = flag.Bool("update-order", false, "rewrite testdata/proc_order.log from this build")

// orderOracleLog runs 64 procs that mix every way a proc can suspend, wake
// and die — Sleep, Yield, Park/WakeAt, Cond.Wait, WaitTimeout, Signal,
// Broadcast, nested Spawn, Kill from a body and Kill from event context —
// and logs one line per step: virtual time, the engine's arm counter, the
// proc and what it just did. The arm counter is the (time, seq) order's seq,
// so two engines print the same log only if they armed the same events at
// the same points and fired them in the same order.
func orderOracleLog() string {
	e := NewEngine(20260926)
	rng := e.Rand()
	var log strings.Builder
	note := func(who int, what string) {
		fmt.Fprintf(&log, "%d %d %d %s\n", e.now, e.seq, who, what)
	}
	conds := []*Cond{new(Cond), new(Cond), new(Cond), new(Cond)}
	const n = 64
	procs := make([]*Proc, n)
	children := 0
	for i := 0; i < n; i++ {
		procs[i] = e.Spawn("p", func(p *Proc) {
			defer note(i, "exit")
			for step := 0; step < 16; step++ {
				c := conds[rng.Intn(len(conds))]
				switch op := rng.Intn(16); op {
				case 0, 1, 2, 3, 4:
					p.Sleep(Duration(rng.Intn(400)))
					note(i, "slept")
				case 5:
					p.Yield()
					note(i, "yielded")
				case 6:
					p.WakeAt(p.Now().Add(Duration(rng.Intn(300))))
					p.Park()
					note(i, "unparked")
				case 7, 8:
					c.Wait(p)
					note(i, "signalled")
				case 9, 10, 11:
					if c.WaitTimeout(p, Duration(1+rng.Intn(500))) {
						note(i, "signalled in time")
					} else {
						note(i, "timed out")
					}
				case 12:
					woken := len(c.waiters) > 0
					c.Signal()
					note(i, fmt.Sprint("signal ", woken))
				case 13:
					woken := len(c.waiters)
					c.Broadcast()
					note(i, fmt.Sprint("broadcast ", woken))
				case 14:
					child := n + children
					children++
					e.Spawn("child", func(q *Proc) {
						q.Sleep(Duration(rng.Intn(100)))
						note(child, "child ran")
					})
					note(i, "spawned")
				case 15:
					// Crash a neighbour, which is parked, finished, dead
					// already or not yet started — never the caller.
					v := (i + 1 + rng.Intn(n-1)) % n
					note(i, fmt.Sprint("kill ", v))
					procs[v].Kill()
				}
			}
		})
	}
	// Event context: keep the conds moving so waiters mostly wake, and crash
	// a proc now and then. The Kill is the event's last act.
	var tick *Timer
	ticks := 0
	tick = e.NewTimer(func() {
		ticks++
		conds[ticks%len(conds)].Signal()
		if ticks < 200 {
			tick.Reset(Duration(20 + rng.Intn(60)))
		}
		if ticks%25 == 0 {
			v := rng.Intn(n)
			note(-1, fmt.Sprint("kill ", v))
			procs[v].Kill()
		}
	})
	tick.Reset(50)
	e.Run()
	out := log.String()
	e.Shutdown()
	return out
}

// TestProcOrderMatchesRecordedLog compares the step log against the one the
// channel-hand-off engine printed for the same program (recorded at commit
// 8381e78, before procs became coroutines). How control reaches a proc is
// free to change; when it gets there, and in what order, is not.
func TestProcOrderMatchesRecordedLog(t *testing.T) {
	const path = "testdata/proc_order.log"
	got := orderOracleLog()
	if *updateOrder {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), bytes.Split(want, []byte("\n"))
	for i := range g {
		if i >= len(w) || g[i] != string(w[i]) {
			wl := "<end of log>"
			if i < len(w) {
				wl = string(w[i])
			}
			t.Fatalf("step %d diverged (time seq proc what):\n got  %s\n want %s", i+1, g[i], wl)
		}
	}
	t.Fatalf("log ends after %d steps, recorded log has %d", len(g), len(w))
}
