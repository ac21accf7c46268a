package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// settledGoroutines reads runtime.NumGoroutine once it holds still. A
// goroutine that has run its last statement — a finished test's runner, a
// coordinator worker past its WaitGroup.Done — stays counted until the
// runtime retires it a few instructions later, possibly on another thread;
// nothing in this package announces that, so give it a millisecond at a time
// while the count is still moving. A leaked goroutine holds the count up, and
// the exact comparisons below fail on it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// Kill unwinds the victim before it returns, wherever the victim is parked
// and whoever the killer is: nothing after the park runs, deferred functions
// run exactly once, and a later firing of the victim's stale wakeup is inert.
func TestKillParkedProc(t *testing.T) {
	parks := []struct {
		name string
		park func(p *Proc, c *Cond)
	}{
		{"Sleep", func(p *Proc, c *Cond) { p.Sleep(100) }},
		{"Park", func(p *Proc, c *Cond) { p.WakeAt(100); p.Park() }},
		{"Wait", func(p *Proc, c *Cond) { c.Wait(p) }},
		{"WaitTimeout", func(p *Proc, c *Cond) { c.WaitTimeout(p, 100) }},
	}
	killers := []struct {
		name string
		kill func(e *Engine, victim *Proc, then func())
	}{
		{"event", func(e *Engine, victim *Proc, then func()) {
			e.AfterFuncAt(50, func() { victim.Kill(); then() })
		}},
		{"proc", func(e *Engine, victim *Proc, then func()) {
			e.Spawn("killer", func(p *Proc) { p.Sleep(50); victim.Kill(); then() })
		}},
	}
	for _, pk := range parks {
		for _, k := range killers {
			t.Run(pk.name+"/"+k.name, func(t *testing.T) {
				e := NewEngine(1)
				c := new(Cond)
				entered, deferred, after := 0, 0, 0
				victim := e.Spawn("victim", func(p *Proc) {
					defer func() { deferred++ }()
					entered++
					pk.park(p, c)
					after++
				})
				checked := false
				k.kill(e, victim, func() {
					// Synchronous: the unwind is over when Kill returns.
					checked = true
					if deferred != 1 || !victim.Done() || !victim.killed {
						t.Errorf("on return from Kill: deferred ran %d times, done=%v killed=%v",
							deferred, victim.Done(), victim.killed)
					}
					if len(c.waiters) != 0 {
						t.Errorf("corpse still registered on the cond")
					}
				})
				e.Run()
				c.Broadcast()
				e.Run()
				if !checked || entered != 1 || after != 0 || deferred != 1 {
					t.Fatalf("checked=%v entered=%d after=%d deferred=%d; want true 1 0 1", checked, entered, after, deferred)
				}
				if len(e.procs) != 0 {
					t.Fatalf("%d procs still listed", len(e.procs))
				}
				victim.Kill() // idempotent
			})
		}
	}
}

// A proc killed before its first resume never runs: neither its body nor
// anything it deferred.
func TestKillNeverStartedProc(t *testing.T) {
	e := NewEngine(1)
	ran := false
	p := e.Spawn("unborn", func(p *Proc) {
		defer func() { ran = true }()
		ran = true
	})
	p.Kill()
	if !p.Done() || !p.killed || len(e.procs) != 0 {
		t.Fatalf("done=%v killed=%v listed=%d", p.Done(), p.killed, len(e.procs))
	}
	e.Run() // the spawn kick still fires, on a finished proc
	if ran {
		t.Fatal("killed-before-start proc ran")
	}
}

func TestKillRunningProcPanics(t *testing.T) {
	e := NewEngine(1)
	var got any
	e.Spawn("suicidal", func(p *Proc) {
		defer func() { got = recover() }()
		p.Kill()
	})
	e.Run()
	if got == nil {
		t.Fatal("Kill of the running proc did not panic")
	}
}

// Shutdown is synchronous whatever state a proc is in: when it returns every
// coroutine has exited.
func TestShutdownReleasesEveryCoroutine(t *testing.T) {
	before := settledGoroutines()
	e := NewEngine(1)
	c := new(Cond)
	deferred := 0
	for i := 0; i < 8; i++ {
		e.Spawn("finished", func(p *Proc) { p.Sleep(5) })
		e.Spawn("asleep", func(p *Proc) { defer func() { deferred++ }(); p.Sleep(1000) })
		e.Spawn("waiting", func(p *Proc) { defer func() { deferred++ }(); c.Wait(p) })
	}
	e.RunUntil(100)
	for i := 0; i < 8; i++ {
		e.Spawn("unstarted", func(p *Proc) { t.Error("unstarted proc ran") })
	}
	if runtime.NumGoroutine() < before+24 {
		t.Fatal("live procs hold no goroutines: the test measures nothing")
	}
	e.Shutdown()
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("%d goroutines after Shutdown, %d before the first Spawn", got, before)
	}
	if deferred != 16 || len(e.procs) != 0 {
		t.Fatalf("deferred ran %d times (want 16), %d procs still listed", deferred, len(e.procs))
	}
}

// A panic in a proc body is raised on the goroutine driving the engine, out
// of Run, with the value it was raised with.
func TestBodyPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("bystander", func(p *Proc) { p.Sleep(1000) })
	e.Spawn("buggy", func(p *Proc) {
		p.Sleep(10)
		panic(fmt.Errorf("bug at %d", p.Now()))
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	if err, ok := got.(error); !ok || err.Error() != "bug at 10" {
		t.Fatalf("Run panicked with %v, want the body's error", got)
	}
	e.Shutdown()
}

// Finished and killed procs leave the engine's list, so restarts and
// short-lived threads cost nothing once they are gone.
func TestFinishedProcsLeaveTheList(t *testing.T) {
	e := NewEngine(1)
	stay := e.Spawn("resident", func(p *Proc) { p.Park() })
	for i := 0; i < 10000; i++ {
		p := e.Spawn("short", func(p *Proc) { p.Sleep(1) })
		if i%2 == 0 {
			e.RunFor(1) // started, asleep
			p.Kill()
		}
		e.RunFor(2)
		if len(e.procs) != 1 {
			t.Fatalf("cycle %d: %d procs listed, want 1", i, len(e.procs))
		}
	}
	if e.procs[0] != stay || stay.idx != 0 {
		t.Fatalf("resident proc lost its place")
	}
	e.Shutdown()
	if len(e.procs) != 0 {
		t.Fatalf("%d procs listed after Shutdown", len(e.procs))
	}
}

// The commonest thing a proc does — sleep, be resumed — allocates nothing.
func TestSleepCycleAllocFree(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(10)
		}
	})
	cycle := func() { e.RunFor(10) }
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("sleep → resume cycle allocates %.2f times, want 0", avg)
	}
	e.Shutdown()
}
