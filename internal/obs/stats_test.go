package obs

import (
	"testing"
)

// The counter, histogram and timeline cases of record live in
// internal/trace's tests until ROADMAP item 5(d) deletes that package; these
// check what is new to the types' home here.

// TestCountersZeroValue: a zero Counters is empty and counts without a
// constructor.
func TestCountersZeroValue(t *testing.T) {
	var c Counters
	if c.Get("a") != 0 || c.Snapshot() != nil {
		t.Fatal("a zero set is not empty")
	}
	c.Inc("a")
	c.Add("b", 5)
	c.Inc("a")
	if c.Get("a") != 2 || c.Get("b") != 5 {
		t.Fatalf("a=%d b=%d", c.Get("a"), c.Get("b"))
	}
}

// TestCountersIncAllocatesNothing: once a name is in the set, counting it
// again allocates nothing.
func TestCountersIncAllocatesNothing(t *testing.T) {
	var c Counters
	for _, name := range []string{"ep.create", "fault.write", "event.notify"} {
		c.Inc(name)
	}
	if n := testing.AllocsPerRun(100, func() { c.Inc("event.notify") }); n != 0 {
		t.Fatalf("Inc on a touched name allocates %v times, want 0", n)
	}
}

// TestCountersSnapshotIsACopy: what Snapshot returns is the caller's; later
// adds do not show through it, and writing it does not touch the set.
func TestCountersSnapshotIsACopy(t *testing.T) {
	var c Counters
	c.Add("a", 1)
	snap := c.Snapshot()
	c.Add("a", 1)
	if snap[0] != (CounterKV{"a", 1}) {
		t.Fatalf("snapshot = %v after a later add, want [a=1]", snap)
	}
	snap[0].Value = 99
	if c.Get("a") != 2 {
		t.Fatalf("writing the snapshot changed the set: a=%d, want 2", c.Get("a"))
	}
}
