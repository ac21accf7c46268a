package nic

import (
	"testing"

	"virtnet/internal/sim"
)

// TestCounterHandlesAreTheNamedCounters: every ctr* index, the firmware's
// handle on one of its counters, has a name, no two share one, and each NACK
// reason counts under its own name in both directions.
func TestCounterHandlesAreTheNamedCounters(t *testing.T) {
	seen := map[string]int{}
	for i, name := range ctrNames {
		if name == "" {
			t.Fatalf("counter %d has no name", i)
		}
		if j, dup := seen[name]; dup {
			t.Fatalf("counters %d and %d are both %q", j, i, name)
		}
		seen[name] = i
	}
	for r := NackNone; r <= NackMoved; r++ {
		if ctrNames[ctrTxNack+int(r)] != "tx.nack."+r.String() || ctrNames[ctrRxNack+int(r)] != "rx.nack."+r.String() {
			t.Fatalf("reason %v counts as %q / %q", r, ctrNames[ctrTxNack+int(r)], ctrNames[ctrRxNack+int(r)])
		}
		if nackNote[r] != "nack:"+r.String() || returnedNote[r] != "returned:"+r.String() {
			t.Fatalf("reason %v notes %q / %q", r, nackNote[r], returnedNote[r])
		}
	}
}

// TestCountersListWhatTheFirmwareTouched: Snapshot lists exactly the
// counters the firmware added to, a zero add included — a message with no
// payload puts tx.bytes and rx.bytes in it at 0, which vnperf's digest of
// touched names depends on — and no counter the firmware never reached. Get
// agrees with Snapshot, and an add allocates nothing.
func TestCountersListWhatTheFirmwareTouched(t *testing.T) {
	r := newRig(t, 2, 1, nil, nil)
	defer r.shutdown()
	tx, rx := r.nics[0], r.nics[1]
	if kv := tx.C.Snapshot(); len(kv) != 0 {
		t.Fatalf("an idle NI already reports %v", kv)
	}
	src := r.newEP(t, 0, 100, 7, 0)
	r.newEP(t, 1, 200, 9, 0)
	r.send(0, src, &SendDesc{DstNI: 1, DstEP: 200, Key: 9, Handler: 3})
	r.e.RunFor(10 * sim.Millisecond)

	for _, c := range []struct {
		n     *NIC
		bytes string
	}{{tx, "tx.bytes"}, {rx, "rx.bytes"}} {
		listed := map[string]bool{}
		for _, kv := range c.n.C.Snapshot() {
			listed[kv.Name] = true
			if got := c.n.C.Get(kv.Name); got != kv.Value {
				t.Fatalf("Get(%q) = %d, Snapshot says %d", kv.Name, got, kv.Value)
			}
		}
		if !listed[c.bytes] || c.n.C.Get(c.bytes) != 0 {
			t.Fatalf("%s = %d, listed %v: a zero add must list it at 0", c.bytes, c.n.C.Get(c.bytes), listed[c.bytes])
		}
		for _, name := range []string{"tx.retrans", "rx.dup", "nic.crash", "tx.nack.overrun"} {
			if listed[name] {
				t.Fatalf("%s listed, but the firmware never touched it", name)
			}
		}
		for _, name := range ctrNames {
			if !listed[name] && c.n.C.Get(name) != 0 {
				t.Fatalf("%s = %d but not listed", name, c.n.C.Get(name))
			}
		}
	}
	if tx.C.Get("tx.data") != 1 || rx.C.Get("rx.delivered") != 1 {
		t.Fatalf("tx %v\nrx %v", tx.C.Snapshot(), rx.C.Snapshot())
	}
	if avg := testing.AllocsPerRun(100, func() { tx.C.add(ctrRxNack+int(NackMoved), 1) }); avg != 0 {
		t.Fatalf("an add allocates %.1f times", avg)
	}
}
